"""Perturbed-profile strip solver and its boundary operator."""

import math
import tracemalloc

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
    build_symbol_table,
    dn_flat,
    dn_general,
    extend_flat,
    sobolev_functionals,
    sobolev_norm,
    taylor_angle,
    verify_kernel_bounds,
)
from conedn.conical import quad_log_k
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
    tilde = GridFn(grid, 0.12 * np.exp(-((grid.sigma / 1.5) ** 2)))
    return ConeProfile(theta_star=angle, eta_tilde=tilde)


@pytest.fixture(scope="module")
def table(grid, angle):
    return build_symbol_table(grid, angle)


def _gaussian(grid, amp, width):
    return GridFn(grid, amp * np.exp(-((grid.sigma / width) ** 2)))


def _segment_stations(sg):
    """Midpoints of the energy segments: the interior faces, then the middle
    of the top half segment."""
    return np.append(sg.faces[1:-1], 1.0 - sg.delta_y / 4.0)


def _dense_solve(profile, phi, sg):
    """Oracle for the matrix-free solver: the discrete energy of the strip
    module's docstring assembled as one dense matrix, with a dense spectral
    derivative, solved directly.  A and gamma are evaluated here from the
    docstring's formula, not read from the solver.  Returns the field
    (n_sigma, n_y) and the variational flux sin(eta) G phi."""
    grid = sg.sigma
    n_s, n_y = grid.n_sigma, sg.n_y
    dy, ds = sg.delta_y, grid.delta
    zeta = np.array(grid.zeta)
    zeta[n_s // 2] = 0.0
    d1 = np.real(np.fft.ifft(1j * zeta[:, None] * np.fft.fft(np.eye(n_s), axis=0), axis=0))
    d1 = 0.5 * (d1 - d1.T)
    eta, eta_s = profile.eta[:, None], profile.eta_sigma[:, None]
    y = _segment_stations(sg)[None, :]
    sin_y = np.sin(y * eta)
    a11 = sin_y * eta
    a12 = -sin_y * y * eta_s
    a22 = sin_y * (1.0 + (y * eta_s) ** 2) / eta
    gamma = eta * np.sin(sg.centers[None, :] * eta) / 4.0

    def blocks(a11, a12, a22, gap):
        s_blk = 0.5 * d1.T @ (a11[:, None] * d1)
        t_blk = d1.T * a12[None, :] / gap
        return s_blk, t_blk, np.diag(2.0 * a22 / gap**2)

    mat = np.zeros((n_y, n_s, n_y, n_s))
    rhs = np.zeros((n_y, n_s))
    for j in range(n_y - 1):
        s_blk, t_blk, u = blocks(a11[:, j], a12[:, j], a22[:, j], dy)
        w = ds * dy
        mat[j, :, j] += w * (s_blk - t_blk - t_blk.T + u)
        mat[j + 1, :, j + 1] += w * (s_blk + t_blk + t_blk.T + u)
        mat[j, :, j + 1] += w * (s_blk + t_blk - t_blk.T - u)
        mat[j + 1, :, j] += w * (s_blk + t_blk - t_blk.T - u).T
    s_t, t_t, u_t = blocks(a11[:, -1], a12[:, -1], a22[:, -1], dy / 2.0)
    w_t = ds * dy / 2.0
    phi_vals = phi.values
    mat[-1, :, -1] += w_t * (s_t - t_t - t_t.T + u_t)
    rhs[-1] -= w_t * (s_t + t_t - t_t.T - u_t) @ phi_vals
    for j in range(n_y):
        mat[j, :, j] += np.diag(2.0 * ds * dy * gamma[:, j])
    v = np.linalg.solve(mat.reshape(n_y * n_s, -1), rhs.ravel()).reshape(n_y, n_s).T
    flux = 0.5 * (w_t / ds) * ((s_t - t_t + t_t.T - u_t) @ v[:, -1]
                               + (s_t + t_t + t_t.T + u_t) @ phi_vals)
    return v, flux


def _packet(grid):
    s = grid.sigma
    return GridFn(grid, np.exp(-(s / 2.0) ** 2) * np.cos(math.pi * s / 4.0))


def _mode(grid, k, amp=1.0):
    zk = math.pi * k / grid.L
    return GridFn(grid, amp * np.cos(zk * grid.sigma))


class TestTypes:
    def test_profile_bound_enforced(self, grid, angle):
        too_big = GridFn(grid, np.full(grid.n_sigma, angle.theta_star * 1.01))
        with pytest.raises(DomainError):
            ConeProfile(theta_star=angle, eta_tilde=too_big)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_profile_bound_refuses_non_finite(self, grid, angle, bad):
        # a NaN sup fails every comparison, so the bound is one positive test
        tilde = np.zeros(grid.n_sigma)
        tilde[3] = bad
        with pytest.raises(DomainError, match="must stay below"):
            ConeProfile(theta_star=angle, eta_tilde=GridFn(grid, tilde))

    def test_min_cells_enforced(self, grid):
        with pytest.raises(DomainError):
            StripGrid(sigma=grid, n_y=8)

    def test_field_shape_enforced(self, grid):
        sg = StripGrid(sigma=grid, n_y=16)
        with pytest.raises(DomainError):
            StripField(grid, sg.centers, np.zeros((grid.n_sigma, 5)))

    def test_array_holders_compare_and_hash_by_identity(self, grid, angle):
        # a generated __eq__ over array fields would raise on the ambiguous
        # truth value of an array, and a generated __hash__ on the array
        sg = StripGrid(sigma=grid, n_y=16)
        phi = _mode(grid, 1)

        def pair(make):
            a, b = make(), make()
            assert a == a and a != b and hash(a) == hash(a)
            assert len({a, b}) == 2

        pair(lambda: GridFn(grid, phi.values))
        pair(lambda: StripField(grid, sg.centers, np.zeros((grid.n_sigma, 16))))
        pair(lambda: build_symbol_table(grid, angle))
        pair(lambda: ConeProfile.flat(grid, angle))
        pair(lambda: dn_general(ConeProfile.flat(grid, angle), phi, sg))
        pair(lambda: verify_kernel_bounds(build_symbol_table(grid, angle), zeta_max=20.0))
        # the grid keeps value equality, which the grid checks rely on
        assert SigmaGrid(L=8.0, n_sigma=128) == grid
        assert hash(SigmaGrid(L=8.0, n_sigma=128)) == hash(grid)
        assert SigmaGrid(L=9.0, n_sigma=128) != grid

    def test_solve_field_sits_on_cell_centers(self, grid, bump_profile):
        # a solve's stations stop half a cell below y = 1, so it has no
        # trace column; its trace is the data
        sg = StripGrid(sigma=grid, n_y=16)
        field = dn_general(bump_profile, _mode(grid, 1), sg).field
        assert np.array_equal(field.ys, sg.centers)
        assert field.values.shape == (grid.n_sigma, 16)
        with pytest.raises(DomainError, match="y = 1"):
            field.boundary_trace()


def _solver_matrix(profile, sg):
    """The solver's a11, a12, a22 at its segment midpoints, (n_sigma, n_y),
    unfolded from the operator's coefficient arrays."""
    op = strip_module._StripOperator(profile, sg)
    assert np.array_equal(op.y, _segment_stations(sg))
    ds, gap = sg.sigma.delta, op.gap[:, None]
    return [a.T for a in (-op.s_gs / (ds * gap), -op.s_dv / ds, op.y_dv * gap / (2.0 * ds))]


class TestCoefficients:
    def test_flat_reduction(self, grid, angle, flat_profile):
        sg = StripGrid(sigma=grid, n_y=16)
        a11, a12, a22 = _solver_matrix(flat_profile, sg)
        th = angle.theta_star
        y = _segment_stations(sg)
        assert np.allclose(a11, np.sin(y[None, :] * th) * th, atol=1e-14)
        assert np.max(np.abs(a12)) == 0.0
        assert np.allclose(a22, np.sin(y[None, :] * th) / th, atol=1e-14)

    def test_determinant_identity(self, grid, bump_profile):
        sg = StripGrid(sigma=grid, n_y=24)
        a11, a12, a22 = _solver_matrix(bump_profile, sg)
        det = a11 * a22 - a12**2
        target = np.sin(_segment_stations(sg)[None, :] * bump_profile.eta[:, None]) ** 2
        assert np.max(np.abs(det - target)) < 1e-12

    def test_eigenvalue_floor(self, grid, bump_profile):
        sg = StripGrid(sigma=grid, n_y=24)
        a11, a12, a22 = _solver_matrix(bump_profile, sg)
        _, floor = sobolev_functionals(bump_profile, 3.0)
        y = _segment_stations(sg)
        tr = a11 + a22
        det = a11 * a22 - a12**2
        lam_min = 0.5 * (tr - np.sqrt(tr**2 - 4.0 * det))
        assert np.all(lam_min >= y[None, :] * floor - 1e-12)


class TestSolve:
    def test_zero_data_zero_solution(self, grid, bump_profile):
        sg = StripGrid(sigma=grid, n_y=16)
        v = dn_general(bump_profile, GridFn.zeros(grid), sg).field
        assert np.max(np.abs(v.values)) == 0.0

    def test_linearity(self, grid, bump_profile):
        sg = StripGrid(sigma=grid, n_y=16)
        p1, p2 = _mode(grid, 2), _mode(grid, 5, amp=0.4)
        v1 = dn_general(bump_profile, p1, sg).field.values
        v2 = dn_general(bump_profile, p2, sg).field.values
        p12 = GridFn(grid, p1.values + p2.values)
        v12 = dn_general(bump_profile, p12, sg).field.values
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
            v = dn_general(flat_profile, phi, sg).field
            ref = extend_flat(phi, sg.centers * th, table)
            errs.append(float(np.max(np.abs(v.values - ref.values))))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(slopes - 2.0) < 0.3)

    @pytest.mark.parametrize("theta", [taylor_angle().theta_star, math.pi / 2, 0.85 * math.pi],
                             ids=["taylor", "half_pi", "0.85pi"])
    @pytest.mark.parametrize("k", [2, 8])
    def test_conical_harmonic_second_order(self, grid, theta, k):
        # r^{-1/2} cos(zeta ln(1/r)) k(zeta, theta) is harmonic in any cone
        # and, at a lattice frequency, 2L-periodic in sigma: the strip field
        # cos(zeta sigma) k(zeta, y eta) solves the problem with the data at
        # y = 1 and no forcing, and the DN value is cos(zeta sigma) k1
        # + zeta eta_s sin(zeta sigma) k, k1 = dk/dtheta at eta
        prof = ConeProfile(theta_star=ConeAngle(theta), eta_tilde=_gaussian(grid, 0.1, 1.5))
        zeta = math.pi * k / grid.L
        eta = prof.eta
        cos_, sin_ = np.cos(zeta * grid.sigma), np.sin(zeta * grid.sigma)
        log_k, ratio = quad_log_k(zeta, eta, want_deriv=True)
        kv = np.exp(log_k)
        g_exact = cos_ * ratio * kv + zeta * prof.eta_sigma * sin_ * kv
        g_errs, v_errs = [], []
        for ny in (32, 64, 128):
            sg = StripGrid(sigma=grid, n_y=ny)
            res = dn_general(prof, GridFn(grid, cos_ * kv), sg)
            v_exact = cos_[:, None] * np.exp(
                quad_log_k(zeta, np.outer(eta, sg.centers).ravel())[0]).reshape(-1, ny)
            g_errs.append(np.max(np.abs(res.g_of_phi.values - g_exact)))
            v_errs.append(np.max(np.abs(res.field.values - v_exact)))
        for errs in (g_errs, v_errs):
            slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
            assert np.all(np.abs(slopes - 2.0) < 0.3), slopes

    @pytest.mark.parametrize("power", [600, -600])
    def test_power_of_two_data_scaling_is_exact(self, grid, bump_profile, power):
        # the solve runs on the data scaled by a power of two, so data
        # 2^power times larger give every output exactly 2^power times larger
        sg = StripGrid(sigma=grid, n_y=64)
        phi = _gaussian(grid, 1.0, 1.8)
        base = dn_general(bump_profile, phi, sg)
        scaled = dn_general(bump_profile, GridFn(grid, np.ldexp(phi.values, power)), sg)
        for name in ("g_of_phi", "b_normal", "v_tangential", "field"):
            want = np.ldexp(getattr(base, name).values, power)
            assert np.array_equal(getattr(scaled, name).values, want), name
        assert (scaled.iterations, scaled.residual_norm) == (base.iterations, base.residual_norm)

    @pytest.mark.parametrize("amplitude", [1e-300, 1e-170, 1e-150, 1e154, 1e200])
    def test_extreme_data_amplitudes_solve_as_amplitude_one(self, grid, bump_profile, amplitude):
        # unscaled, the squared sums of PCG underflow below about 1e-160
        # (no iteration and a wrong DN value at 1e-170) and overflow from
        # about 1e154 (a lost positive definiteness)
        sg = StripGrid(sigma=grid, n_y=64)
        base = dn_general(bump_profile, _gaussian(grid, 1.0, 1.8), sg)
        res = dn_general(bump_profile, _gaussian(grid, amplitude, 1.8), sg)
        assert res.iterations == base.iterations
        g0 = base.g_of_phi.values
        assert np.max(np.abs(res.g_of_phi.values / amplitude - g0)) <= 1e-12 * np.max(np.abs(g0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_refused(self, grid, bump_profile, bad):
        # a NaN residual scale fails > 0, which once returned a 0-iteration
        # NaN result as if the data were zero
        sg = StripGrid(sigma=grid, n_y=16)
        vals = _mode(grid, 1).values.copy()
        vals[5] = bad
        with pytest.raises(DomainError, match="phi holds a non-finite"):
            dn_general(bump_profile, GridFn(grid, vals), sg)


class TestMatrixFree:
    @pytest.fixture(scope="class")
    def small(self, angle):
        grid = SigmaGrid(L=8.0, n_sigma=64)
        prof = ConeProfile(theta_star=angle, eta_tilde=_gaussian(grid, 0.12, 1.5))
        return grid, prof, StripGrid(sigma=grid, n_y=16)

    def test_matches_dense_assembly(self, small):
        grid, prof, sg = small
        phi = _packet(grid)
        v_ref, flux_ref = _dense_solve(prof, phi, sg)
        res = dn_general(prof, phi, sg)
        assert np.max(np.abs(res.field.values - v_ref)) <= 1e-12 * np.max(np.abs(v_ref))
        g_ref = flux_ref / np.sin(prof.eta)
        g = res.g_of_phi.values
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))

    def test_oracle_catches_a12_sign_defect(self, angle, monkeypatch):
        # a flipped a12 keeps A positive definite, so PCG converges as
        # before on another operator; only an oracle that evaluates A
        # itself sees the change
        grid = SigmaGrid(L=8.0, n_sigma=32)
        prof = ConeProfile(theta_star=angle, eta_tilde=_gaussian(grid, 0.12, 1.5))
        sg = StripGrid(sigma=grid, n_y=16)
        phi = _packet(grid)
        init = strip_module._StripOperator.__init__

        def flipped(self, *args):
            init(self, *args)
            self.s_dv = -self.s_dv          # s_dv = -dsigma a12

        monkeypatch.setattr(strip_module._StripOperator, "__init__", flipped)
        g = dn_general(prof, phi, sg).g_of_phi.values
        g_ref = _dense_solve(prof, phi, sg)[1] / np.sin(prof.eta)
        assert np.max(np.abs(g - g_ref)) > 1e-6 * np.max(np.abs(g_ref))

    def test_exact_cone_converges_in_one_iteration(self, grid, flat_profile):
        res = dn_general(flat_profile, _mode(grid, 3), StripGrid(sigma=grid, n_y=64))
        assert res.iterations == 1

    def test_iteration_cap_raises(self, grid, angle, monkeypatch):
        steep = ConeProfile(theta_star=angle,
                            eta_tilde=_gaussian(grid, 0.8 * angle.theta_star, 0.5))
        monkeypatch.setattr(strip_module, "CG_MAX_ITER", 2)
        with pytest.raises(EvaluationError, match=r"2 iterations .*residual \d"):
            dn_general(steep, _mode(grid, 3), StripGrid(sigma=grid, n_y=32)).field

    def test_indefinite_operator_raises(self, grid, bump_profile, monkeypatch):
        # the energy negated after the preconditioner is built: p.Ap < 0
        init = strip_module._StripOperator.__init__

        def negated(self, *args):
            init(self, *args)
            for name in ("s_gs", "s_dv", "y_dv", "weight"):
                setattr(self, name, -getattr(self, name))

        monkeypatch.setattr(strip_module._StripOperator, "__init__", negated)
        with pytest.raises(EvaluationError, match=r"lost positive definiteness: p\.Ap = -"):
            dn_general(bump_profile, _mode(grid, 3), StripGrid(sigma=grid, n_y=16))

    def test_recomputed_residual_above_tolerance_raises(self, grid, bump_profile,
                                                        monkeypatch):
        # PCG stopped at half its initial residual leaves the recomputed one there
        monkeypatch.setattr(strip_module, "CG_TARGET", 0.5)
        with pytest.raises(EvaluationError,
                           match=r"strip solve residual \d\.\d+e-0\d exceeds tolerance 1\.0e-10"):
            dn_general(bump_profile, _mode(grid, 3), StripGrid(sigma=grid, n_y=16))

    def test_memory_held_below_24_field_arrays(self):
        # MAX_CELLS's budget: a solve at (256, 128) peaks at about 21 arrays
        # of (n_y + 1) x n_sigma float64, inputs not counted
        grid = SigmaGrid(L=8.0, n_sigma=256)
        prof = ConeProfile(theta_star=taylor_angle(), eta_tilde=_gaussian(grid, 0.1, 1.5))
        phi, sg = _mode(grid, 3), StripGrid(sigma=grid, n_y=128)
        dn_general(prof, phi, sg)
        tracemalloc.start()
        try:
            res = dn_general(prof, phi, sg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.iterations > 1
        assert peak < 24 * 129 * 256 * 8

    def test_steep_profile_converges_within_cap(self):
        # 0.95 of the ConeProfile limit min(theta*, pi - theta*), narrow
        grid = SigmaGrid(L=8.0, n_sigma=256)
        angle = ConeAngle(math.pi / 2)
        prof = ConeProfile(theta_star=angle,
                           eta_tilde=_gaussian(grid, 0.95 * math.pi / 2, 0.4))
        res = dn_general(prof, _mode(grid, 3), StripGrid(sigma=grid, n_y=128))
        assert 1 < res.iterations < strip_module.CG_MAX_ITER
        assert np.all(np.isfinite(res.g_of_phi.values))


    def test_steep_profile_iteration_count_pinned(self):
        # the profile above takes 129 iterations; the operator's rounding
        # may move that by one, a change in the method by more
        grid = SigmaGrid(L=8.0, n_sigma=256)
        angle = ConeAngle(math.pi / 2)
        prof = ConeProfile(theta_star=angle,
                           eta_tilde=_gaussian(grid, 0.95 * math.pi / 2, 0.4))
        res = dn_general(prof, _mode(grid, 3), StripGrid(sigma=grid, n_y=128))
        assert abs(res.iterations - 129) <= 1

    @pytest.mark.parametrize("amp", [0.0, 0.12, 0.8])
    def test_transform_budget(self, grid, angle, monkeypatch, amp):
        # 5 transforms an iteration (3 in the operator, 2 in the
        # preconditioner solve), plus the transforms of [0; phi] and of
        # [v; phi], the two operator calls on them, and the first
        # preconditioner solve.  The spy takes only the arguments numpy 1.25
        # accepts (no ``out``, which came in 2.0), so a call the declared
        # floor lacks fails here
        prof = ConeProfile(theta_star=angle,
                           eta_tilde=_gaussian(grid, amp * angle.theta_star, 1.0))
        calls = []
        fft = strip_module.np.fft
        for name in ("rfft", "irfft"):
            def counted(a, n=None, axis=-1, norm=None, _f=getattr(fft, name), _name=name):
                calls.append(_name)
                return _f(a, n=n, axis=axis, norm=norm)
            monkeypatch.setattr(fft, name, counted)
        res = dn_general(prof, _mode(grid, 3), StripGrid(sigma=grid, n_y=32))
        assert res.iterations >= 1
        assert len(calls) <= 5 * res.iterations + 8

    def test_cone_factors_build_no_full_coefficients(self, grid, angle, bump_profile,
                                                     monkeypatch):
        # the preconditioner averages the operator's arrays over sigma, so
        # a solve evaluates A and gamma once, as (n_y, n_sigma) rows
        sg = StripGrid(sigma=grid, n_y=48)
        op = strip_module._StripOperator(bump_profile, sg)
        assert len(op.mult) == sg.n_y - 1
        assert op.inv_piv.shape == (sg.n_y, 2 * (grid.n_sigma // 2 + 1))
        shapes = []
        init = strip_module._StripOperator.__init__

        def spy(self, *args):
            init(self, *args)
            shapes.append({np.shape(a) for a in (self.s_gs, self.s_dv, self.y_dv, self.weight)})

        monkeypatch.setattr(strip_module._StripOperator, "__init__", spy)
        for prof in (ConeProfile.flat(grid, angle), bump_profile):
            assert dn_general(prof, _mode(grid, 3), sg).iterations >= 1
        assert shapes == [{(sg.n_y, grid.n_sigma)}] * 2

    def test_mode_profile_iteration_count_pinned(self):
        # mode 8 at 0.95 of the ConeProfile limit at pi/2 with the default
        # data takes 270 iterations; rounding may move that by one
        grid = SigmaGrid(L=8.0, n_sigma=128)
        prof = ConeProfile(theta_star=ConeAngle(math.pi / 2), eta_tilde=GridFn(
            grid, 0.95 * math.pi / 2 * np.cos(8 * math.pi * grid.sigma / grid.L)))
        res = dn_general(prof, _gaussian(grid, 1.0, 1.8), StripGrid(sigma=grid, n_y=64))
        assert abs(res.iterations - 270) <= 1


class TestDN:
    def test_flat_reduces_to_multiplier(self, grid, flat_profile, table):
        phi = _mode(grid, 3)
        res = dn_general(flat_profile, phi, StripGrid(sigma=grid, n_y=64))
        ref = dn_flat(phi, table).values
        err = np.max(np.abs(res.g_of_phi.values - ref))
        assert err < 5e-3 * np.max(np.abs(ref))

    def test_flat_trace_decomposition(self, grid, flat_profile, table):
        # eta_s = 0: tangential trace is the sigma derivative of the data,
        # normal trace is G phi / ... here B = dvy/eta = G/( (1)/eta * eta ) = G
        phi = _mode(grid, 3)
        res = dn_general(flat_profile, phi, StripGrid(sigma=grid, n_y=64))
        dphi = dsigma_values(grid, phi.values)
        assert np.max(np.abs(res.v_tangential.values - dphi)) < 1e-12
        g = res.g_of_phi.values
        b = res.b_normal.values
        assert np.max(np.abs(g - b)) < 1e-12 * max(1.0, np.max(np.abs(g)))

    def test_trace_identity_exact(self, grid, bump_profile):
        s = grid.sigma
        phi = GridFn(grid, np.exp(-(s / 2.0) ** 2) * np.cos(math.pi * s / 4.0))
        res = dn_general(bump_profile, phi, StripGrid(sigma=grid, n_y=32))
        g = res.g_of_phi.values
        b = res.b_normal.values
        vt = res.v_tangential.values
        resid = g + vt * bump_profile.eta_sigma - b
        assert np.max(np.abs(resid)) < 1e-13 * max(1.0, np.max(np.abs(g)))

    def test_linearity(self, grid, bump_profile):
        sg = StripGrid(sigma=grid, n_y=24)
        p1, p2 = _mode(grid, 1), _mode(grid, 4, amp=0.7)
        g1 = dn_general(bump_profile, p1, sg).g_of_phi.values
        g2 = dn_general(bump_profile, p2, sg).g_of_phi.values
        p12 = GridFn(grid, p1.values + p2.values)
        g12 = dn_general(bump_profile, p12, sg).g_of_phi.values
        assert np.max(np.abs(g12 - g1 - g2)) < 1e-10 * max(1.0, np.max(np.abs(g12)))

    def test_weighted_symmetry(self, grid, bump_profile):
        # <sin(eta) G phi, psi> = <phi, sin(eta) G psi>: exact for the
        # variational flux (it is the action of a symmetric Schur complement)
        sg = StripGrid(sigma=grid, n_y=32)
        phi = _mode(grid, 3)
        s = grid.sigma
        psi = GridFn(grid, np.exp(-(s / 2.0) ** 2) * np.cos(5.0 * math.pi * s / 8.0))
        sin_eta = np.sin(bump_profile.eta)
        ds = grid.delta
        lhs = ds * np.sum(sin_eta * dn_general(bump_profile, phi, sg)
                          .g_of_phi.values * psi.values)
        rhs = ds * np.sum(sin_eta * dn_general(bump_profile, psi, sg)
                          .g_of_phi.values * phi.values)
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
                s = grid.sigma
                phi = GridFn(grid, amp * np.exp(-(s / width) ** 2)
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
        tilde = GridFn(grid, 0.05 * np.exp(-(grid.sigma / 1.5) ** 2))
        p1 = ConeProfile(theta_star=angle, eta_tilde=tilde)
        p2 = ConeProfile(theta_star=angle,
                         eta_tilde=GridFn(grid, tilde.values + tilde.values))
        u1, _ = sobolev_functionals(p1, 3.0)
        u2, _ = sobolev_functionals(p2, 3.0)
        assert u2 >= 2.0 * u1

    def test_floor_decreases_with_amplitude(self, grid, angle):
        floors = []
        for amp in (0.05, 0.15, 0.3):
            tilde = GridFn(grid, amp * np.exp(-(grid.sigma / 1.5) ** 2))
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
        tilde = GridFn(grid, 0.08 * np.exp(-(grid.sigma / 1.2) ** 2))
        prof = ConeProfile(theta_star=angle, eta_tilde=tilde)
        u, _ = sobolev_functionals(prof, 3.0)
        t, d = tilde.values, prof.eta_sigma
        entries = [
            tilde,
            GridFn(grid, d),
            GridFn(grid, t * t),
            GridFn(grid, t * d),
            GridFn(grid, d * d),
        ]
        expect = max(sobolev_norm(e, 2.5) for e in entries)
        assert u == pytest.approx(expect, rel=1e-12)
