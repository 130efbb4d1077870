"""Exact-cone DN operator: symbol, extension, kernel bounds."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from conedn import (
    DomainError,
    GridFn,
    SigmaGrid,
    build_symbol_table,
    dn_flat,
    extend_flat,
    sobolev_norm,
    taylor_angle,
    to_spectrum,
    verify_kernel_bounds,
)
from conedn.conical import quad_log_k
from conedn.grid import Spectrum, to_gridfn


@pytest.fixture(scope="module")
def angle():
    return taylor_angle()


@pytest.fixture(scope="module")
def grid():
    return SigmaGrid(L=8.0, n_sigma=128)


@pytest.fixture(scope="module")
def table(grid, angle):
    return build_symbol_table(grid, angle)


def _mode(grid, k, amp=1.0):
    zk = math.pi * k / grid.L
    return GridFn.from_callable(grid, lambda s: amp * np.cos(zk * s))


class TestSymbol:
    def test_even_exact(self, table):
        n = table.grid.n_sigma
        mirror = np.r_[0, np.arange(n - 1, 0, -1)]
        assert np.array_equal(table.g, table.g[mirror])

    def test_positive(self, table):
        assert np.all(table.g > 0)

    def test_zero_frequency_oracle(self, table, angle):
        # quadrature of the derivative integrand at zeta = 0, independent rule
        th = angle.theta_star
        t = np.linspace(0.0, math.pi / 2.0, 20001)
        s = np.sin(th / 2.0) * np.cos(t)
        phi = 2.0 * np.arcsin(s)
        ch = np.sqrt(1.0 - s * s)
        f_k = 1.0 / ch
        dphi = np.cos(th / 2.0) * np.cos(t) / ch
        f_d = dphi * (0.5 * (s / ch)) / ch
        g0 = simpson(f_d, x=t) / simpson(f_k, x=t)
        assert table.g[0] == pytest.approx(g0, rel=1e-9)

    def test_first_order_at_large_frequency(self, grid, angle):
        big = SigmaGrid(L=8.0, n_sigma=1024)
        tb = build_symbol_table(big, angle)
        idx = np.argmin(np.abs(np.abs(big.zeta) - 200.0))
        z = abs(big.zeta[idx])
        assert tb.g[idx] / z == pytest.approx(1.0, rel=3e-2)

    def test_single_mode_is_scaled(self, grid, table):
        k = 5
        phi = _mode(grid, k)
        out = dn_flat(phi, table).real_values(tol=1e-10)
        assert np.max(np.abs(out - table.g[k] * phi.real_values(tol=1e-10))) < 1e-12

    def test_commutes_with_derivative(self, grid, table):
        rng = np.random.default_rng(7)
        coeffs = np.zeros(grid.n_sigma, dtype=complex)
        for k in range(1, 12):
            c = rng.normal() + 1j * rng.normal()
            coeffs[k] = c
            coeffs[-k] = np.conj(c)
        phi = to_gridfn(Spectrum(grid, coeffs))
        zeta = np.array(grid.zeta)
        zeta[grid.n_sigma // 2] = 0.0

        def dsig(f):
            return to_gridfn(Spectrum(grid, to_spectrum(f).coeffs * 1j * zeta))

        a = dn_flat(dsig(phi), table).real_values(tol=1e-8)
        b = dsig(dn_flat(phi, table)).real_values(tol=1e-8)
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_symmetric_in_l2(self, grid, table):
        rng = np.random.default_rng(11)
        phi = GridFn(grid, rng.normal(size=grid.n_sigma))
        psi = GridFn(grid, rng.normal(size=grid.n_sigma))
        ds = grid.delta
        lhs = ds * np.sum(dn_flat(phi, table).real_values(tol=1e-8)
                          * psi.real_values(tol=1e-10))
        rhs = ds * np.sum(dn_flat(psi, table).real_values(tol=1e-8)
                          * phi.real_values(tol=1e-10))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestExtension:
    def test_trace_recovers_data(self, grid, angle, table):
        phi = GridFn.from_callable(grid, lambda s: np.exp(-(s / 2.0) ** 2))
        th = angle.theta_star
        ext = extend_flat(phi, np.array([th / 3.0, th]), table)
        err = np.max(np.abs(ext.values[:, -1] - phi.real_values(tol=1e-10)))
        assert err < 1e-10

    def test_constant_mode_profile(self, grid, angle, table):
        # phi = c: the extension at theta is c * k(0, theta)/k(0, theta*)
        c = 0.73
        phi = GridFn(grid, np.full(grid.n_sigma, c))
        th = angle.theta_star
        half = th / 2.0
        ext = extend_flat(phi, np.array([half]), table)
        lk_half, _ = quad_log_k(0.0, np.array([half]))
        lk_star, _ = quad_log_k(0.0, np.array([th]))
        expect = c * math.exp(lk_half[0] - lk_star[0])
        assert np.max(np.abs(ext.values[:, 0] - expect)) < 1e-12

    def test_samples_outside_range_rejected(self, grid, angle, table):
        phi = _mode(grid, 2)
        with pytest.raises(DomainError):
            extend_flat(phi, np.array([-0.1]), table)
        with pytest.raises(DomainError):
            extend_flat(phi, np.array([angle.theta_star * 1.5]), table)

    def test_interior_equation_residual(self, grid, angle, table):
        # weighted divergence form in (sigma, theta):
        #   d_s(sin th  d_s F) + d_th(sin th d_th F) - (sin th / 4) F = 0;
        # sigma derivatives spectral, theta derivatives by centered
        # differences on a uniform sample: residual should drop ~ dth^2
        phi = GridFn.from_callable(
            grid, lambda s: np.exp(-(s / 2.0) ** 2) * np.cos(2.0 * np.pi * s / grid.L))
        th = angle.theta_star
        zeta = np.array(grid.zeta)
        zeta[grid.n_sigma // 2] = 0.0

        def resid(n_th):
            thetas = np.linspace(th / 4.0, th * 0.9, n_th)
            dth = thetas[1] - thetas[0]
            ext = extend_flat(phi, thetas, table)
            F = ext.values
            hat = np.fft.fft(F, axis=0)
            d2s = np.real(np.fft.ifft(-(zeta[:, None] ** 2) * hat, axis=0))
            ds1 = np.real(np.fft.ifft(1j * zeta[:, None] * hat, axis=0))
            dth1 = np.gradient(F, dth, axis=1, edge_order=2)
            dth2 = (F[:, 2:] - 2.0 * F[:, 1:-1] + F[:, :-2]) / dth**2
            sin = np.sin(thetas)[None, :]
            cos = np.cos(thetas)[None, :]
            inner = slice(1, n_th - 1)
            r = (sin[:, inner] * d2s[:, inner]
                 + cos[:, inner] * dth1[:, inner]
                 + sin[:, inner] * dth2
                 - 0.25 * sin[:, inner] * F[:, inner])
            return float(np.max(np.abs(r)))

        r1, r2 = resid(41), resid(81)
        assert r1 / r2 > 2.5  # second order in the theta step

    def test_sobolev_transfer_bounded(self, grid, angle, table):
        # integral of the squared extension norms against the data norm:
        # ratios across random data stay within a spread factor of 3
        th = angle.theta_star
        from numpy.polynomial.legendre import leggauss
        x, w = leggauss(24)
        thetas = 1e-6 + (th - 1e-6) * (x + 1.0) / 2.0
        wts = w * (th - 1e-6) / 2.0
        order = np.argsort(thetas)
        thetas, wts = thetas[order], wts[order]

        rng = np.random.default_rng(3)
        s_exp = 2.0
        ratios = []
        zeta = np.array(grid.zeta)
        zeta[grid.n_sigma // 2] = 0.0
        for _ in range(10):
            width = rng.uniform(0.8, 2.5)
            k = rng.integers(0, 10)
            amp = rng.uniform(0.5, 2.0)
            phi = GridFn.from_callable(
                grid, lambda s: amp * np.exp(-(s / width) ** 2)
                * np.cos(math.pi * k * s / grid.L))
            ext = extend_flat(phi, thetas, table)
            total = 0.0
            for j in range(thetas.size):
                row = GridFn(grid, ext.values[:, j])
                total += wts[j] * sobolev_norm(row, s_exp + 0.5) ** 2
            # theta derivative by spectral ratio: use FD across rows
            dF = np.gradient(ext.values, thetas, axis=1, edge_order=2)
            for j in range(thetas.size):
                row = GridFn(grid, dF[:, j])
                total += wts[j] * sobolev_norm(row, s_exp - 0.5) ** 2
            ratios.append(total / sobolev_norm(phi, s_exp) ** 2)
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() <= 3.0


@pytest.fixture(scope="module")
def report(angle):
    small = SigmaGrid(L=8.0, n_sigma=64)
    tb = build_symbol_table(small, angle)
    return verify_kernel_bounds(tb, zeta_max=100.0)


class TestKernelBounds:
    def test_all_finite(self, report):
        assert np.all(np.isfinite(report.s_values))
        assert all(np.isfinite(v) for v in report.s_sup)

    def test_plateau_upper_half(self, report):
        assert max(report.plateau_spread) < 0.05

    def test_bessel_plain_bound(self, report):
        assert report.bessel_sup <= 1.0 + 1e-9

    def test_bessel_weighted_bound(self, report):
        assert report.bessel_weighted_sup <= 3.0 + 1e-9

    def test_bessel_zero_argument(self, report):
        # at x = 0 the k = 0 ratio integrand is exactly 1, so the integral is 1
        assert report.bessel_integrals[0, 0] == pytest.approx(1.0, abs=1e-12)
        # k = 1: I1(0) = 0, integrand vanishes identically
        assert report.bessel_integrals[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_zeta_max_domain(self, table):
        with pytest.raises(DomainError):
            verify_kernel_bounds(table, zeta_max=0.0)
        with pytest.raises(DomainError):
            verify_kernel_bounds(table, zeta_max=600.0)

    def test_plateau_independent_of_grid_resolution(self, angle, report):
        # denser tables add frequency samples; those sharpen the suprema but
        # must not move the plateau verdict
        dense = build_symbol_table(SigmaGrid(L=8.0, n_sigma=256), angle)
        rep = verify_kernel_bounds(dense, zeta_max=100.0)
        assert rep.plateau_spread == report.plateau_spread
        assert rep.passed and report.passed
        assert all(d >= c for d, c in zip(rep.s_sup, report.s_sup))

    def test_s0_quadrature_oracle(self, angle):
        # S_0 at one frequency against a dense Simpson rule
        small = SigmaGrid(L=8.0, n_sigma=64)
        tb = build_symbol_table(small, angle)
        rep = verify_kernel_bounds(tb, zeta_max=20.0)
        th = angle.theta_star
        i = int(np.argmin(np.abs(rep.zeta - 5.0)))
        z = float(rep.zeta[i])
        thetas = np.linspace(1e-9, th, 40001)
        lk, _ = quad_log_k(z, thetas)
        lk_star, _ = quad_log_k(z, np.array([th]))
        integrand = np.exp(2.0 * (lk - lk_star[0]))
        s0 = math.sqrt(1.0 + z * z) * simpson(integrand, x=thetas)
        assert rep.s_values[0, i] == pytest.approx(s0, rel=1e-6)
