"""Perturbed-profile strip solver and its boundary operator."""

import math

import numpy as np
import pytest

import conedn.strip as strip_module
from conedn import (
    ConeAngle,
    ConeProfile,
    DomainError,
    EvaluationError,
    GridFn,
    SigmaGrid,
    StripField,
    StripGrid,
    assemble_coefficients,
    build_symbol_table,
    dn_flat,
    dn_general,
    extend_flat,
    sobolev_functionals,
    sobolev_norm,
    solve_strip,
    taylor_angle,
)
from conedn.strip import dsigma_values


@pytest.fixture(scope="module")
def angle():
    return taylor_angle()


@pytest.fixture(scope="module")
def grid():
    return SigmaGrid(L=8.0, n_sigma=128)


@pytest.fixture(scope="module")
def flat_profile(grid, angle):
    return ConeProfile.flat(grid, angle)


@pytest.fixture(scope="module")
def bump_profile(grid, angle):
    tilde = GridFn.from_callable(grid, lambda s: 0.12 * np.exp(-((s / 1.5) ** 2)))
    return ConeProfile(theta_star=angle, eta_tilde=tilde)


@pytest.fixture(scope="module")
def table(grid, angle):
    return build_symbol_table(grid, angle)


def _gaussian(grid, amp, width):
    return GridFn.from_callable(grid, lambda s: amp * np.exp(-((s / width) ** 2)))


def _dense_solve(profile, phi, sg, source=None):
    """Oracle for the matrix-free solver: the same discrete energy assembled
    as one dense matrix, with a dense spectral derivative, solved directly.
    Returns the field (n_sigma, n_y) and the variational flux sin(eta) G phi."""
    grid = sg.sigma
    n_s, n_y = grid.n_sigma, sg.n_y
    dy, ds = sg.delta_y, grid.delta
    zeta = np.array(grid.zeta)
    zeta[n_s // 2] = 0.0
    d1 = np.real(np.fft.ifft(1j * zeta[:, None] * np.fft.fft(np.eye(n_s), axis=0), axis=0))
    d1 = 0.5 * (d1 - d1.T)
    c = assemble_coefficients(profile, sg)

    def blocks(a11, a12, a22, gap):
        s_blk = 0.5 * d1.T @ (a11[:, None] * d1)
        t_blk = d1.T * a12[None, :] / gap
        return s_blk, t_blk, np.diag(2.0 * a22 / gap**2)

    mat = np.zeros((n_y, n_s, n_y, n_s))
    rhs = np.zeros((n_y, n_s))
    for j in range(n_y - 1):
        s_blk, t_blk, u = blocks(c.a11[:, j + 1], c.a12[:, j + 1], c.a22[:, j + 1], dy)
        w = ds * dy
        mat[j, :, j] += w * (s_blk - t_blk - t_blk.T + u)
        mat[j + 1, :, j + 1] += w * (s_blk + t_blk + t_blk.T + u)
        mat[j, :, j + 1] += w * (s_blk + t_blk - t_blk.T - u)
        mat[j + 1, :, j] += w * (s_blk + t_blk - t_blk.T - u).T
    s_t, t_t, u_t = blocks(c.a11_top, c.a12_top, c.a22_top, dy / 2.0)
    w_t = ds * dy / 2.0
    phi_vals = phi.real_values(tol=1e-10)
    mat[-1, :, -1] += w_t * (s_t - t_t - t_t.T + u_t)
    rhs[-1] -= w_t * (s_t + t_t - t_t.T - u_t) @ phi_vals
    for j in range(n_y):
        mat[j, :, j] += np.diag(2.0 * ds * dy * c.gamma[:, j])
    if source is not None:
        rhs += 2.0 * ds * dy * source.values.T
    v = np.linalg.solve(mat.reshape(n_y * n_s, -1), rhs.ravel()).reshape(n_y, n_s).T
    flux = 0.5 * (w_t / ds) * ((s_t - t_t + t_t.T - u_t) @ v[:, -1]
                               + (s_t + t_t + t_t.T + u_t) @ phi_vals)
    return v, flux


def _mode(grid, k, amp=1.0):
    zk = math.pi * k / grid.L
    return GridFn.from_callable(grid, lambda s: amp * np.cos(zk * s))


class TestTypes:
    def test_profile_bound_enforced(self, grid, angle):
        too_big = GridFn(grid, np.full(grid.n_sigma, angle.theta_star * 1.01))
        with pytest.raises(DomainError):
            ConeProfile(theta_star=angle, eta_tilde=too_big)

    def test_min_cells_enforced(self, grid):
        with pytest.raises(DomainError):
            StripGrid(sigma=grid, n_y=8)

    def test_field_shape_enforced(self, grid):
        sg = StripGrid(sigma=grid, n_y=16)
        with pytest.raises(DomainError):
            StripField(grid=sg, values=np.zeros((grid.n_sigma, 5)))

    def test_boundary_trace_quadratic_exact(self, grid):
        # quadratic in y is reproduced exactly by the three-point trace
        sg = StripGrid(sigma=grid, n_y=32)
        yc = sg.centers
        vals = np.broadcast_to(2.0 * yc**2 - yc + 0.25, (grid.n_sigma, 32))
        f = StripField(grid=sg, values=vals)
        assert np.max(np.abs(f.boundary_trace() - 1.25)) < 1e-13


class TestCoefficients:
    def test_flat_reduction(self, grid, angle, flat_profile):
        sg = StripGrid(sigma=grid, n_y=16)
        c = assemble_coefficients(flat_profile, sg)
        th = angle.theta_star
        y = sg.faces
        assert np.allclose(c.a11, np.sin(y[None, :] * th) * th, atol=1e-14)
        assert np.max(np.abs(c.a12)) == 0.0
        assert np.allclose(c.a22, np.sin(y[None, :] * th) / th, atol=1e-14)

    def test_determinant_identity(self, grid, bump_profile):
        sg = StripGrid(sigma=grid, n_y=24)
        c = assemble_coefficients(bump_profile, sg)
        det = c.a11 * c.a22 - c.a12**2
        target = np.sin(sg.faces[None, :] * bump_profile.eta[:, None]) ** 2
        assert np.max(np.abs(det - target)) < 1e-12

    def test_eigenvalue_floor(self, grid, bump_profile):
        sg = StripGrid(sigma=grid, n_y=24)
        c = assemble_coefficients(bump_profile, sg)
        _, floor = sobolev_functionals(bump_profile, 3.0)
        y = sg.faces
        tr = c.a11 + c.a22
        det = c.a11 * c.a22 - c.a12**2
        lam_min = 0.5 * (tr - np.sqrt(tr**2 - 4.0 * det))
        assert np.all(lam_min >= y[None, :] * floor - 1e-12)


class TestSolve:
    def test_zero_data_zero_solution(self, grid, bump_profile):
        sg = StripGrid(sigma=grid, n_y=16)
        v = solve_strip(bump_profile, GridFn.zeros(grid), sg)
        assert np.max(np.abs(v.values)) == 0.0

    def test_linearity(self, grid, bump_profile):
        sg = StripGrid(sigma=grid, n_y=16)
        p1, p2 = _mode(grid, 2), _mode(grid, 5, amp=0.4)
        v1 = solve_strip(bump_profile, p1, sg).values
        v2 = solve_strip(bump_profile, p2, sg).values
        v12 = solve_strip(bump_profile, p1 + p2, sg).values
        scale = np.max(np.abs(v12))
        assert np.max(np.abs(v12 - v1 - v2)) < 1e-11 * scale

    def test_flat_matches_kernel_extension(self, grid, angle, flat_profile, table):
        # against the multiplier-built extension at the cell centers: the
        # max-norm error must shrink at second order in the cell size
        phi = _mode(grid, 3)
        th = angle.theta_star
        errs = []
        for ny in (32, 64, 128):
            sg = StripGrid(sigma=grid, n_y=ny)
            v = solve_strip(flat_profile, phi, sg)
            ref = extend_flat(phi, sg.centers * th, table)
            errs.append(float(np.max(np.abs(v.values - ref.values))))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(slopes - 2.0) < 0.3)

    def test_manufactured_solution_second_order(self, grid, angle, bump_profile):
        # v_man = cos(pi sigma / L) y^2; source built from analytic fluxes
        L = grid.L
        s = np.array(grid.sigma)
        prof = bump_profile
        eta, eta_s = prof.eta, prof.eta_sigma

        def source_values(sg):
            yc = sg.centers

            def flux_y(y):
                sin_ = np.sin(y[None, :] * eta[:, None])
                a12 = -sin_ * y[None, :] * eta_s[:, None]
                a22 = sin_ * (1.0 + (y[None, :] * eta_s[:, None]) ** 2) / eta[:, None]
                dvs = -(math.pi / L) * np.sin(math.pi * s / L)[:, None] * y[None, :] ** 2
                dvy = np.cos(math.pi * s / L)[:, None] * 2.0 * y[None, :]
                return a12 * dvs + a22 * dvy

            def flux_s(y):
                sin_ = np.sin(y[None, :] * eta[:, None])
                a11 = sin_ * eta[:, None]
                a12 = -sin_ * y[None, :] * eta_s[:, None]
                dvs = -(math.pi / L) * np.sin(math.pi * s / L)[:, None] * y[None, :] ** 2
                dvy = np.cos(math.pi * s / L)[:, None] * 2.0 * y[None, :]
                return a11 * dvs + a12 * dvy

            h = 1e-5
            dfy = (flux_y(yc + h) - flux_y(yc - h)) / (2.0 * h)
            dfs = dsigma_values(grid, flux_s(yc))
            gam = eta[:, None] * np.sin(yc[None, :] * eta[:, None]) / 4.0
            vman = np.cos(math.pi * s / L)[:, None] * yc[None, :] ** 2
            return -(dfs + dfy) + gam * vman

        phi = GridFn.from_callable(grid, lambda x: np.cos(math.pi * x / L))
        errs = []
        for ny in (16, 32, 64):
            sg = StripGrid(sigma=grid, n_y=ny)
            src = StripField(grid=sg, values=source_values(sg))
            v = solve_strip(prof, phi, sg, source=src)
            vman = np.cos(math.pi * s / L)[:, None] * sg.centers[None, :] ** 2
            errs.append(float(np.max(np.abs(v.values - vman))))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(slopes - 2.0) < 0.3)

    def test_source_grid_mismatch_rejected(self, grid, bump_profile):
        sg = StripGrid(sigma=grid, n_y=16)
        other = StripGrid(sigma=grid, n_y=32)
        src = StripField(grid=other, values=np.zeros((grid.n_sigma, 32)))
        with pytest.raises(DomainError):
            solve_strip(bump_profile, _mode(grid, 1), sg, source=src)


class TestMatrixFree:
    @pytest.fixture(scope="class")
    def small(self, angle):
        grid = SigmaGrid(L=8.0, n_sigma=64)
        prof = ConeProfile(theta_star=angle, eta_tilde=_gaussian(grid, 0.12, 1.5))
        return grid, prof, StripGrid(sigma=grid, n_y=16)

    @pytest.mark.parametrize("with_source", [False, True])
    def test_matches_dense_assembly(self, small, with_source):
        grid, prof, sg = small
        phi = GridFn.from_callable(
            grid, lambda s: np.exp(-(s / 2.0) ** 2) * np.cos(math.pi * s / 4.0))
        src = None
        if with_source:
            yc = sg.centers
            src = StripField(grid=sg, values=np.cos(math.pi * np.array(grid.sigma) / grid.L)
                             [:, None] * (1.0 + yc[None, :] ** 2))
        v_ref, flux_ref = _dense_solve(prof, phi, sg, src)
        res = dn_general(prof, phi, sg, source=src)
        assert np.max(np.abs(res.field.values - v_ref)) <= 1e-12 * np.max(np.abs(v_ref))
        g_ref = flux_ref / np.sin(prof.eta)
        g = res.g_of_phi.real_values(tol=1e-8)
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))

    def test_exact_cone_converges_in_one_iteration(self, grid, flat_profile):
        res = dn_general(flat_profile, _mode(grid, 3), StripGrid(sigma=grid, n_y=64))
        assert res.iterations == 1

    def test_iteration_cap_raises(self, grid, angle, monkeypatch):
        steep = ConeProfile(theta_star=angle,
                            eta_tilde=_gaussian(grid, 0.8 * angle.theta_star, 0.5))
        monkeypatch.setattr(strip_module, "CG_MAX_ITER", 2)
        with pytest.raises(EvaluationError, match=r"2 iterations .*residual \d"):
            solve_strip(steep, _mode(grid, 3), StripGrid(sigma=grid, n_y=32))

    def test_steep_profile_converges_within_cap(self):
        # 0.95 of the ConeProfile limit min(theta*, pi - theta*), narrow
        grid = SigmaGrid(L=8.0, n_sigma=256)
        angle = ConeAngle(math.pi / 2)
        prof = ConeProfile(theta_star=angle,
                           eta_tilde=_gaussian(grid, 0.95 * math.pi / 2, 0.4))
        res = dn_general(prof, _mode(grid, 3), StripGrid(sigma=grid, n_y=128))
        assert 1 < res.iterations < strip_module.CG_MAX_ITER
        assert np.all(np.isfinite(res.g_of_phi.values))


class TestDN:
    def test_flat_reduces_to_multiplier(self, grid, flat_profile, table):
        phi = _mode(grid, 3)
        res = dn_general(flat_profile, phi, StripGrid(sigma=grid, n_y=64))
        ref = dn_flat(phi, table).real_values(tol=1e-10)
        err = np.max(np.abs(res.g_of_phi.real_values(tol=1e-8) - ref))
        assert err < 5e-3 * np.max(np.abs(ref))

    def test_flat_trace_decomposition(self, grid, flat_profile, table):
        # eta_s = 0: tangential trace is the sigma derivative of the data,
        # normal trace is G phi / ... here B = dvy/eta = G/( (1)/eta * eta ) = G
        phi = _mode(grid, 3)
        res = dn_general(flat_profile, phi, StripGrid(sigma=grid, n_y=64))
        dphi = dsigma_values(grid, phi.real_values(tol=1e-10))
        assert np.max(np.abs(res.v_tangential.real_values(tol=1e-8) - dphi)) < 1e-12
        g = res.g_of_phi.real_values(tol=1e-8)
        b = res.b_normal.real_values(tol=1e-8)
        assert np.max(np.abs(g - b)) < 1e-12 * max(1.0, np.max(np.abs(g)))

    def test_trace_identity_exact(self, grid, bump_profile):
        phi = GridFn.from_callable(
            grid, lambda s: np.exp(-(s / 2.0) ** 2) * np.cos(math.pi * s / 4.0))
        res = dn_general(bump_profile, phi, StripGrid(sigma=grid, n_y=32))
        g = res.g_of_phi.real_values(tol=1e-8)
        b = res.b_normal.real_values(tol=1e-8)
        vt = res.v_tangential.real_values(tol=1e-8)
        resid = g + vt * bump_profile.eta_sigma - b
        assert np.max(np.abs(resid)) < 1e-13 * max(1.0, np.max(np.abs(g)))

    def test_linearity(self, grid, bump_profile):
        sg = StripGrid(sigma=grid, n_y=24)
        p1, p2 = _mode(grid, 1), _mode(grid, 4, amp=0.7)
        g1 = dn_general(bump_profile, p1, sg).g_of_phi.real_values(tol=1e-8)
        g2 = dn_general(bump_profile, p2, sg).g_of_phi.real_values(tol=1e-8)
        g12 = dn_general(bump_profile, p1 + p2, sg).g_of_phi.real_values(tol=1e-8)
        assert np.max(np.abs(g12 - g1 - g2)) < 1e-10 * max(1.0, np.max(np.abs(g12)))

    def test_weighted_symmetry(self, grid, bump_profile):
        # <sin(eta) G phi, psi> = <phi, sin(eta) G psi>: exact for the
        # variational flux (it is the action of a symmetric Schur complement)
        sg = StripGrid(sigma=grid, n_y=32)
        phi = _mode(grid, 3)
        psi = GridFn.from_callable(
            grid, lambda s: np.exp(-(s / 2.0) ** 2) * np.cos(5.0 * math.pi * s / 8.0))
        sin_eta = np.sin(bump_profile.eta)
        ds = grid.delta
        lhs = ds * np.sum(sin_eta * dn_general(bump_profile, phi, sg)
                          .g_of_phi.real_values(tol=1e-8) * psi.real_values(tol=1e-10))
        rhs = ds * np.sum(sin_eta * dn_general(bump_profile, psi, sg)
                          .g_of_phi.real_values(tol=1e-8) * phi.real_values(tol=1e-10))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_residual_diagnostic_shrinks(self, grid, bump_profile):
        phi = _mode(grid, 2)
        r32 = dn_general(bump_profile, phi, StripGrid(sigma=grid, n_y=32))
        r128 = dn_general(bump_profile, phi, StripGrid(sigma=grid, n_y=128))
        assert r128.residual_norm < 0.5 * r32.residual_norm

    def test_first_order_ratio_bounded(self, grid, bump_profile):
        # ||G phi||_{H^{m-1}} / ||phi||_{H^m} stays within one spread factor
        # across random data, m in {1, 2}
        sg = StripGrid(sigma=grid, n_y=48)
        rng = np.random.default_rng(5)
        for m in (1, 2):
            ratios = []
            for _ in range(10):
                width = rng.uniform(0.8, 2.5)
                k = int(rng.integers(0, 10))
                amp = rng.uniform(0.5, 2.0)
                phi = GridFn.from_callable(
                    grid, lambda s: amp * np.exp(-(s / width) ** 2)
                    * np.cos(math.pi * k * s / grid.L))
                g = dn_general(bump_profile, phi, sg).g_of_phi
                ratios.append(sobolev_norm(g, m - 1.0) / sobolev_norm(phi, float(m)))
            ratios = np.array(ratios)
            assert ratios.max() / ratios.min() <= 10.0
            assert np.all(np.isfinite(ratios))


class TestFunctionals:
    def test_flat_values(self, grid, angle, flat_profile):
        u, floor = sobolev_functionals(flat_profile, 3.0)
        th = angle.theta_star
        assert u == 0.0
        expect = math.sin(th) / th * min(0.5, th * th / 4.0)
        assert floor == pytest.approx(expect, rel=1e-12)

    def test_size_scales_superlinearly(self, grid, angle):
        tilde = GridFn.from_callable(grid, lambda s: 0.05 * np.exp(-(s / 1.5) ** 2))
        p1 = ConeProfile(theta_star=angle, eta_tilde=tilde)
        p2 = ConeProfile(theta_star=angle, eta_tilde=tilde + tilde)
        u1, _ = sobolev_functionals(p1, 3.0)
        u2, _ = sobolev_functionals(p2, 3.0)
        assert u2 >= 2.0 * u1

    def test_floor_decreases_with_amplitude(self, grid, angle):
        floors = []
        for amp in (0.05, 0.15, 0.3):
            tilde = GridFn.from_callable(grid, lambda s: amp * np.exp(-(s / 1.5) ** 2))
            prof = ConeProfile(theta_star=angle, eta_tilde=tilde)
            floors.append(sobolev_functionals(prof, 3.0)[1])
        assert floors[0] > floors[1] > floors[2] > 0.0

    def test_regularity_domain(self, flat_profile):
        with pytest.raises(DomainError):
            sobolev_functionals(flat_profile, 2.5)
        with pytest.raises(DomainError):
            sobolev_functionals(flat_profile, 9.0)

    def test_quadrature_oracle_for_size(self, grid, angle):
        # one Gaussian perturbation: H^{s-1/2} norm of the slope against a
        # dense trapezoid evaluation of the same spectral sum
        tilde = GridFn.from_callable(grid, lambda s: 0.08 * np.exp(-(s / 1.2) ** 2))
        prof = ConeProfile(theta_star=angle, eta_tilde=tilde)
        u, _ = sobolev_functionals(prof, 3.0)
        entries = [
            tilde,
            GridFn(grid, prof.eta_sigma),
            tilde * tilde,
            tilde * GridFn(grid, prof.eta_sigma),
            GridFn(grid, prof.eta_sigma) * GridFn(grid, prof.eta_sigma),
        ]
        expect = max(sobolev_norm(e, 2.5) for e in entries)
        assert u == pytest.approx(expect, rel=1e-12)
