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
import conedn.conical as conical_module
import conedn.flat as flat_module
from conedn.conical import (
    ConeAngle,
    bessel_i0_derivative_scaled,
    dtheta_ratios_from_seed,
    panel_rule,
    quad_log_k,
)
from conedn.grid import multiplier_values, to_gridfn


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

    @pytest.mark.parametrize("theta_star", [0.2 * math.pi, None, 0.5 * math.pi, 0.8 * math.pi],
                             ids=["0.2 pi", "Taylor angle", "pi/2", "0.8 pi"])
    def test_order_minus_one_term(self, theta_star):
        # k ~ I_0(zeta theta)/sqrt(sinc theta) gives g = zeta - cot(theta*)/2
        # - 1/(8 zeta sin^2 theta*) + ..., zeta theta* up to about 2000 here:
        # worst deviations 0.70%, 0.43%, 1.4e-5 and 0.68%
        angle = taylor_angle() if theta_star is None else ConeAngle(theta_star)
        th = angle.theta_star
        big = SigmaGrid(L=8.0, n_sigma=4096)
        zeta = big.rfft_zeta
        g = build_symbol_table(big, angle).g[:zeta.size]
        upper = zeta >= 200.0
        assert zeta[-1] > 804.0
        coefficient = zeta[upper] * (g[upper] - zeta[upper] + 0.5 / math.tan(th))
        assert np.max(np.abs(coefficient * (8.0 * math.sin(th) ** 2) + 1.0)) <= 0.01

    def test_single_mode_is_scaled(self, grid, table):
        k = 5
        phi = _mode(grid, k)
        out = dn_flat(phi, table).values
        assert np.max(np.abs(out - table.g[k] * phi.values)) < 1e-12

    def test_commutes_with_derivative(self, grid, table):
        rng = np.random.default_rng(7)
        coeffs = np.zeros(grid.n_sigma, dtype=complex)
        for k in range(1, 12):
            c = rng.normal() + 1j * rng.normal()
            coeffs[k] = c
            coeffs[-k] = np.conj(c)
        phi = to_gridfn(grid, coeffs)
        zeta = np.array(grid.zeta)
        zeta[grid.n_sigma // 2] = 0.0

        def dsig(f):
            return to_gridfn(grid, to_spectrum(f) * 1j * zeta)

        a = dn_flat(dsig(phi), table).values
        b = dsig(dn_flat(phi, table)).values
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_symmetric_in_l2(self, grid, table):
        rng = np.random.default_rng(11)
        phi = GridFn(grid, rng.normal(size=grid.n_sigma))
        psi = GridFn(grid, rng.normal(size=grid.n_sigma))
        ds = grid.delta
        lhs = ds * np.sum(dn_flat(phi, table).values
                          * psi.values)
        rhs = ds * np.sum(dn_flat(psi, table).values
                          * phi.values)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestExtension:
    def test_trace_recovers_data(self, grid, angle, table):
        phi = GridFn.from_callable(grid, lambda s: np.exp(-(s / 2.0) ** 2))
        th = angle.theta_star
        ext = extend_flat(phi, np.array([th / 3.0, th]), table)
        err = np.max(np.abs(ext.values[:, -1] - phi.values))
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


class TestComplexFftOracle:
    """dn_flat and extend_flat against the complex-FFT route, the real part
    of ifft(fft(phi) * s(zeta)) over all grid frequencies, on random data
    with an O(1) Nyquist coefficient."""

    @staticmethod
    def _data(grid, seed):
        rng = np.random.default_rng(seed)
        return GridFn(grid, rng.standard_normal(grid.n_sigma)
                      + rng.uniform(0.5, 1.5) * (-1.0) ** np.arange(grid.n_sigma))

    @staticmethod
    def _oracle(phi, symbol):
        return np.real(np.fft.ifft(np.fft.fft(phi.values) * symbol))

    @staticmethod
    def _close(a, b):
        return np.max(np.abs(a - b)) <= 1e-13 * max(1.0, float(np.max(np.abs(b))))

    @pytest.mark.parametrize("seed", range(3))
    def test_dn_flat(self, grid, table, seed):
        phi = self._data(grid, seed)
        assert self._close(dn_flat(phi, table).values, self._oracle(phi, table.g))

    def test_extend_flat(self, grid, angle, table):
        phi = self._data(grid, 5)
        th = angle.theta_star
        thetas = th * np.array([0.25, 0.6, 1.0])
        ext = extend_flat(phi, thetas, table)
        for j, theta in enumerate(thetas):
            ratio = np.array([
                math.exp(quad_log_k(abs(z), np.array([theta]))[0][0]
                         - quad_log_k(abs(z), np.array([th]))[0][0])
                for z in grid.zeta])
            assert self._close(ext.values[:, j], self._oracle(phi, ratio))


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
        # at or below the lattice start the lattice would sample above
        # zeta_max or collapse to one point
        for zeta_max in (0.01, 0.05):
            with pytest.raises(DomainError, match=r"\(0\.05, 500\]"):
                verify_kernel_bounds(table, zeta_max=zeta_max)

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


class TestOneQuadratureCallPerThetaSet:
    """The symbol table, the extension and the kernel bounds take all
    frequencies in one quadrature call per set of angles; the kernel bounds
    pass the frequencies that skip their lowest theta panels a set without
    them.  The results equal, bit for bit, loops of one scalar call per
    frequency over every angle."""

    @pytest.fixture(scope="class", params=[0.3 * math.pi, 0.8 * math.pi],
                    ids=["below right angle", "above right angle"])
    def cone(self, request):
        grid = SigmaGrid(L=8.0, n_sigma=128)
        return grid, ConeAngle(request.param)

    def test_symbol_table(self, cone):
        grid, angle = cone
        half = np.empty(grid.rfft_zeta.size)
        for k, z in enumerate(grid.rfft_zeta.tolist()):
            half[k] = quad_log_k(z, np.array([angle.theta_star]), want_deriv=True)[1][0]
        g = np.concatenate([half, half[-2:0:-1]])
        assert np.array_equal(build_symbol_table(grid, angle).g, g)

    def test_extension(self, cone):
        grid, angle = cone
        th = angle.theta_star
        phi = GridFn.from_callable(grid, lambda s: np.exp(-(s / 1.8) ** 2) * np.cos(s))
        thetas = th * np.arange(1, 33) / 32
        ratios = np.empty((grid.rfft_zeta.size, thetas.size))
        for k, z in enumerate(grid.rfft_zeta.tolist()):
            log_row, _ = quad_log_k(z, thetas)
            log_star, _ = quad_log_k(z, np.array([th]))
            ratios[k] = np.exp(log_row - float(log_star[0]))
        values = multiplier_values(grid, phi.values[:, None], ratios)
        ext = extend_flat(phi, thetas, build_symbol_table(grid, angle))
        assert np.array_equal(ext.values, values)

    def test_kernel_bounds(self, cone):
        grid, angle = cone
        th = angle.theta_star
        rep = verify_kernel_bounds(build_symbol_table(grid, angle), zeta_max=100.0)
        thetas, weights = panel_rule(th, th / 2**13, 16)
        s_vals = np.empty((4, rep.zeta.size))
        for i, z in enumerate(rep.zeta.tolist()):
            log_k, r1 = quad_log_k(z, thetas, want_deriv=True)
            log_star, _ = quad_log_k(z, np.array([th]))
            ratios = dtheta_ratios_from_seed(z, thetas, r1, 3)
            sq = np.exp(2.0 * (log_k - float(log_star[0])))
            bracket = math.sqrt(1.0 + z * z)
            s_vals[:, i] = (
                bracket * float(np.sum(weights * sq)),
                (1.0 / bracket) * float(np.sum(weights * (ratios[0] ** 2) * sq)),
                bracket ** (-3) * float(np.sum(weights * (ratios[1] ** 2) * (thetas ** 4) * sq)),
                bracket ** (-5) * float(np.sum(weights * (ratios[2] ** 2) * (thetas ** 6) * sq)),
            )
        assert np.array_equal(rep.s_values, s_vals)


def _unskipped_s_values(table, zetas):
    """S_0..S_3 at ``zetas`` with every theta panel evaluated, in one
    quadrature call over the whole angular rule."""
    th = table.theta_star.theta_star
    thetas, weights = panel_rule(th, th / 2**13, 16)
    log_k, r1 = quad_log_k(zetas, thetas, want_deriv=True)
    log_star, _ = quad_log_k(zetas, np.array([th]))
    ratios = dtheta_ratios_from_seed(zetas[:, None], thetas, r1, 3)
    sq = np.exp(2.0 * (log_k - log_star))
    s_vals = np.stack([
        np.sum(weights * sq, axis=1),
        np.sum(weights * (ratios[0] ** 2) * sq, axis=1),
        np.sum(weights * (ratios[1] ** 2) * (thetas ** 4) * sq, axis=1),
        np.sum(weights * (ratios[2] ** 2) * (thetas ** 6) * sq, axis=1),
    ])
    brackets = [math.sqrt(1.0 + z * z) for z in zetas.tolist()]
    return s_vals * np.array([(b, 1.0 / b, b ** -3, b ** -5) for b in brackets]).T


class TestSkippedPanels:
    """verify_kernel_bounds leaves out the theta panels whose share of
    S_0..S_3 is bounded below SKIP_BOUND, and every S value stays the one
    of the whole rule."""

    @pytest.mark.parametrize("theta_star, zeta_max, pairs", [
        (0.8 * math.pi, 100.0, 23616),
        (None, 100.0, 28096),
        (0.15 * math.pi, 20.0, 224 * 115),
    ], ids=["0.8 pi", "Taylor angle", "0.15 pi, nothing skipped"])
    def test_pairs_evaluated(self, monkeypatch, theta_star, zeta_max, pairs):
        angle = taylor_angle() if theta_star is None else ConeAngle(theta_star)
        table = build_symbol_table(SigmaGrid(L=8.0, n_sigma=128), angle)
        counted = []

        def spy(zeta, thetas, want_deriv=False):
            if want_deriv:
                counted.append(np.size(zeta) * np.size(thetas))
            return quad_log_k(zeta, thetas, want_deriv)

        monkeypatch.setattr(flat_module, "quad_log_k", spy)
        verify_kernel_bounds(table, zeta_max=zeta_max)
        assert sum(counted) == pairs

    @pytest.mark.parametrize("zeta_max", [20.0, 500.0])
    def test_s_values_bit_identical(self, zeta_max):
        grid = SigmaGrid(L=8.0, n_sigma=128)
        for angle in (ConeAngle(0.05 * math.pi), taylor_angle(), ConeAngle(0.5 * math.pi),
                      ConeAngle(0.8 * math.pi), ConeAngle(0.95 * math.pi)):
            table = build_symbol_table(grid, angle)
            rep = verify_kernel_bounds(table, zeta_max=zeta_max)
            assert np.array_equal(rep.s_values, _unskipped_s_values(table, rep.zeta))

    @pytest.mark.parametrize("zeta_max", [20.0, 500.0])
    def test_skip_bound_below_last_bit(self, monkeypatch, zeta_max):
        # at every frequency that leaves out a panel, SKIP_BOUND is at most
        # 2^-60 of each of S_0..S_3, far below their last bits
        grid = SigmaGrid(L=8.0, n_sigma=128)
        tables = [build_symbol_table(grid, angle)
                  for angle in (ConeAngle(0.05 * math.pi), taylor_angle(),
                                ConeAngle(0.5 * math.pi), ConeAngle(0.8 * math.pi),
                                ConeAngle(0.95 * math.pi))]
        calls = []

        def spy(zeta, thetas, want_deriv=False):
            if want_deriv:
                calls.append((np.asarray(zeta), thetas[0]))
            return quad_log_k(zeta, thetas, want_deriv)

        monkeypatch.setattr(flat_module, "quad_log_k", spy)
        n_rows = 0
        for table in tables:
            th = table.theta_star.theta_star
            lowest = panel_rule(th, th / 2**13, 16)[0][0]
            calls.clear()
            rep = verify_kernel_bounds(table, zeta_max=zeta_max)
            # the frequencies of the call without the lowest panels
            skipping = [z for z, first in calls if first != lowest]
            rows = np.isin(rep.zeta, np.concatenate([[], *skipping]))
            n_rows += np.count_nonzero(rows)
            s_min = np.min(rep.s_values[:, rows], axis=0)
            assert np.all(flat_module.SKIP_BOUND <= 2.0**-60 * s_min)
        assert n_rows


def _i0_derivative_oracle(k: int, x):
    """e^{-x} I0^{(k)}(x) from scipy's ive, through I0' = I1,
    I0'' = (I0 + I2)/2, I0''' = (3 I1 + I3)/4, I0'''' = (3 I0 + 4 I2 + I4)/8."""
    from scipy.special import ive
    combo = {0: {0: 1.0}, 1: {1: 1.0}, 2: {0: 0.5, 2: 0.5},
             3: {1: 0.75, 3: 0.25}, 4: {0: 0.375, 2: 0.5, 4: 0.125}}[k]
    return sum(c * ive(m, x) for m, c in combo.items())


@pytest.fixture(scope="module")
def bounds_report(table):
    return verify_kernel_bounds(table, zeta_max=20.0)


class TestBesselRatioIntegrals:
    """The table int_0^1 (I0^{(k)}(y x) / I0(x))^2 dy, k = 0..4, at 200
    points x in [0, 50]."""

    def test_against_scipy_quad(self, bounds_report):
        from scipy.integrate import quad
        xs, got = bounds_report.bessel_x, bounds_report.bessel_integrals
        assert np.array_equal(xs, np.linspace(0.0, 50.0, 200))
        # the limits at x = 0, exactly
        assert got[:, 0].tolist() == [1.0, 0.0, 0.25, 0.0, 9.0 / 64.0]
        # xs[47..49] straddle the switch of the Bessel functions at x = 12
        assert xs[47] < conical_module.BESSEL_SERIES_MAX < xs[49]
        for j in (1, 47, 48, 49, 100, 199):
            x = float(xs[j])
            for k in range(5):
                ref, _ = quad(lambda y: (_i0_derivative_oracle(k, y * x) * math.exp(y * x - x)
                                         / _i0_derivative_oracle(0, x)) ** 2,
                              0.0, 1.0, epsabs=0.0, epsrel=1.2e-14, limit=200)
                assert got[k, j] == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_against_per_x_rule(self, bounds_report):
        # a second, independent rule: per x, a panel rule in y refined
        # toward y = 1, where the integrand's scale is 1/(1 + x)
        bessel = np.empty((5, bounds_report.bessel_x.size))
        for j, x in enumerate(bounds_report.bessel_x.tolist()):
            t, wt = panel_rule(1.0, 1.0 / (1.0 + x), 16)
            y, wy = 1.0 - t[::-1], wt[::-1]
            scale = np.exp(y * x - x) / conical_module.ive(0, x)
            for k in range(5):
                ratio = bessel_i0_derivative_scaled(k, y * x) * scale
                bessel[k, j] = float(np.sum(wy * ratio**2))
        got = bounds_report.bessel_integrals
        assert np.array_equal(got == 0.0, bessel == 0.0)
        nonzero = bessel != 0.0
        assert np.max(np.abs(got - bessel)[nonzero] / bessel[nonzero]) <= 1e-13

    def test_bessel_calls_stay_small(self, monkeypatch):
        # the table makes a few Bessel calls of at most 2,000 arguments
        # each, not one call over a y-rule per x
        sizes = []
        ive = conical_module.ive

        def counted(m, x):
            sizes.append(np.size(x))
            return ive(m, x)

        monkeypatch.setattr(conical_module, "ive", counted)
        flat_module._bessel_ratio_integrals.cache_clear()
        try:
            flat_module._bessel_ratio_integrals()
        finally:
            flat_module._bessel_ratio_integrals.cache_clear()
        assert sizes
        assert max(sizes) <= 2000


def test_bessel_integrals_once_per_process(monkeypatch, table):
    calls = []
    ive = conical_module.ive

    def counted(*args):
        calls.append(args)
        return ive(*args)

    monkeypatch.setattr(conical_module, "ive", counted)
    flat_module._bessel_ratio_integrals.cache_clear()
    first = verify_kernel_bounds(table, zeta_max=20.0)
    assert calls
    n_first = len(calls)
    second = verify_kernel_bounds(table, zeta_max=20.0)
    assert len(calls) == n_first
    assert np.array_equal(second.bessel_integrals, first.bessel_integrals)
    assert not second.bessel_x.flags.writeable
    assert not second.bessel_integrals.flags.writeable
