"""Shape derivative, coefficient derivatives, cancellation, graded expansion."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedn import (
    ConeAngle,
    ConeProfile,
    ConicalParams,
    DomainError,
    EvaluationError,
    GridFn,
    ShapePerturbation,
    SigmaGrid,
    Spectrum,
    StokesCoeffs,
    StripGrid,
    assemble_coefficients,
    build_symbol_table,
    cancellation_quantity,
    conical_p,
    conical_p_dtheta,
    d_eta_coefficients,
    dn_flat,
    dn_general,
    flat_cancellation_symbol,
    l2_norm,
    shape_derivative,
    solve_strip,
    stokes_coefficients,
    stokes_g_ell,
    taylor_angle,
    to_gridfn,
    to_spectrum,
    varpi_field,
)
from conedn.shape import _omega
from conedn.strip import dsigma_values


@pytest.fixture(scope="module")
def angle():
    return taylor_angle()


@pytest.fixture(scope="module")
def grid():
    return SigmaGrid(L=8.0, n_sigma=128)


@pytest.fixture(scope="module")
def coeff_table(grid, angle):
    return stokes_coefficients(angle, np.abs(grid.zeta), order=2)


# criterion data: gently perturbed profile, localized direction, modulated data
@pytest.fixture(scope="module")
def eta0(grid):
    return GridFn.from_callable(grid, lambda s: 0.1 * np.exp(-((s / 1.5) ** 2)))


@pytest.fixture(scope="module")
def profile(grid, angle, eta0):
    return ConeProfile(theta_star=angle, eta_tilde=eta0)


@pytest.fixture(scope="module")
def hdir(grid):
    return ShapePerturbation(GridFn.from_callable(
        grid, lambda s: np.exp(-((s / 2.0) ** 2))))


@pytest.fixture(scope="module")
def phi(grid):
    zk = math.pi * 6 / grid.L
    return GridFn.from_callable(
        grid, lambda s: np.exp(-((s / 1.8) ** 2)) * np.cos(zk * s))


def _band_limited(grid, kmax, decay, seed):
    """Real field with spectrum supported on |k| <= kmax (products of a few
    of these stay alias-free on the grid)."""
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.n_sigma, dtype=complex)
    k = np.arange(1, kmax + 1)
    amp = (1.0 + (math.pi * k / grid.L) ** 2) ** (-decay / 2)
    phases = rng.uniform(0, 2 * math.pi, k.size)
    c[1:kmax + 1] = amp * np.exp(1j * phases)
    c[-1:-kmax - 1:-1] = np.conj(c[1:kmax + 1])
    return GridFn(grid, to_gridfn(Spectrum(grid, c)).values.real)


def _fd_direction(profile, phi, hval, sgrid, eps):
    grid = profile.grid
    base = profile.eta_tilde.values.real
    gp = dn_general(ConeProfile(profile.theta_star, GridFn(grid, base + eps * hval)),
                    phi, sgrid).g_of_phi.values.real
    gm = dn_general(ConeProfile(profile.theta_star, GridFn(grid, base - eps * hval)),
                    phi, sgrid).g_of_phi.values.real
    return (gp - gm) / (2.0 * eps)


class TestShapePerturbation:
    def test_builders_real(self, grid):
        for p in (ShapePerturbation.gaussian(grid, 0.5, 1.5),
                  ShapePerturbation.bump(grid, 0.5, 3.0),
                  ShapePerturbation.mode(grid, 0.5, 3)):
            v = p.h.real_values()
            assert np.max(np.abs(v)) == pytest.approx(0.5, rel=1e-6)

    def test_bump_compact_support(self, grid):
        p = ShapePerturbation.bump(grid, 1.0, 2.0)
        v = p.h.real_values()
        assert np.all(v[np.abs(grid.sigma) >= 2.0] == 0.0)

    def test_width_validated(self, grid):
        with pytest.raises(DomainError):
            ShapePerturbation.gaussian(grid, 1.0, 0.0)


class TestShapeDerivative:
    def test_matches_central_fd(self, profile, phi, hdir, grid):
        # [DERIVED] the formula against a centered difference of the solver,
        # same discretization on both sides
        sgrid = StripGrid(sigma=grid, n_y=128)
        dg = shape_derivative(profile, phi, hdir, sgrid).values.real
        scale = l2_norm(GridFn(grid, dg))
        fd = _fd_direction(profile, phi, hdir.h.values.real, sgrid, 1e-3)
        rel = l2_norm(GridFn(grid, fd - dg)) / scale
        assert rel < 5e-4

    def test_fd_gap_refines_second_order(self, profile, phi, hdir, grid):
        # the formula-vs-FD gap is pure discretization error; halving the
        # cell size divides it by four
        errs = []
        for n_y in (32, 64, 128):
            sgrid = StripGrid(sigma=grid, n_y=n_y)
            dg = shape_derivative(profile, phi, hdir, sgrid).values.real
            fd = _fd_direction(profile, phi, hdir.h.values.real, sgrid, 1e-3)
            errs.append(l2_norm(GridFn(grid, fd - dg)) / l2_norm(GridFn(grid, dg)))
        slopes = [math.log(errs[i] / errs[i + 1]) / math.log(2) for i in range(2)]
        for s in slopes:
            assert 1.7 < s < 2.3

    def test_translation_direction_is_commutator(self, profile, phi, grid):
        # h = d_sigma(eta) generates translations: the derivative collapses to
        # d_sigma G phi - G d_sigma phi, exactly on the discrete grid
        sgrid = StripGrid(sigma=grid, n_y=64)
        h = ShapePerturbation(GridFn(grid, profile.eta_sigma))
        lhs = shape_derivative(profile, phi, h, sgrid).values.real
        res = dn_general(profile, phi, sgrid)
        gdphi = dn_general(profile, GridFn(grid, dsigma_values(grid, phi.values.real)),
                           sgrid).g_of_phi.values.real
        rhs = dsigma_values(grid, res.g_of_phi.values.real) - gdphi
        scale = l2_norm(res.g_of_phi)
        assert l2_norm(GridFn(grid, lhs - rhs)) / scale < 1e-12

    def test_zero_direction_offset_vanishes(self, profile, phi, grid):
        # the h-independent part of the formula is a discrete zero mode
        sgrid = StripGrid(sigma=grid, n_y=64)
        z = shape_derivative(profile, phi, ShapePerturbation(GridFn.zeros(grid)),
                             sgrid).values.real
        scale = l2_norm(dn_general(profile, phi, sgrid).g_of_phi)
        assert l2_norm(GridFn(grid, z)) / scale < 1e-4

    def test_weighted_rearrangement(self, profile, phi, hdir, grid):
        # sin-weighted form absorbs the cotangent: sin(eta) dG.h + h cos(eta) G phi
        # = -sin(eta) G(h B + V) - d_sigma{(h V - B) sin(eta)}
        #   + sin(eta)(h - eta_s) phi / 4
        sgrid = StripGrid(sigma=grid, n_y=64)
        res = dn_general(profile, phi, sgrid)
        b = res.b_normal.values.real
        vt = res.v_tangential.values.real
        hv = hdir.h.values.real
        eta, eta_s = profile.eta, profile.eta_sigma
        dg = shape_derivative(profile, phi, hdir, sgrid).values.real
        lhs = np.sin(eta) * dg + hv * np.cos(eta) * res.g_of_phi.values.real
        g2 = dn_general(profile, GridFn(grid, hv * b + vt), sgrid).g_of_phi.values.real
        rhs = (-np.sin(eta) * g2
               - dsigma_values(grid, (hv * vt - b) * np.sin(eta))
               + np.sin(eta) * (hv - eta_s) * phi.values.real / 4.0)
        rel = l2_norm(GridFn(grid, lhs - rhs)) / l2_norm(GridFn(grid, lhs))
        assert rel < 1e-8

    def test_flat_profile_matches_degree_one(self, grid, angle, hdir, phi, coeff_table):
        # on the exact cone the derivative is the degree-1 expansion operator
        # in the direction shape (independent construction: series + recursion)
        flat = ConeProfile.flat(grid, angle)
        sgrid = StripGrid(sigma=grid, n_y=128)
        dg = shape_derivative(flat, phi, hdir, sgrid).values.real
        g1 = stokes_g_ell(coeff_table, GridFn(grid, hdir.h.values.real), 1,
                          phi).values.real
        rel = l2_norm(GridFn(grid, dg - g1)) / l2_norm(GridFn(grid, g1))
        assert rel < 5e-4


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_shape_derivative_affine_in_direction(seed):
    # dG.(h1 + h2) - dG.h1 - dG.h2 + dG.0 == 0 to solver rounding: every
    # h-dependence in the formula is linear
    grid = SigmaGrid(L=8.0, n_sigma=64)
    angle = taylor_angle()
    eta = _band_limited(grid, 4, 3.0, seed)
    profile = ConeProfile(angle, GridFn(grid, 0.08 * eta.values.real
                                        / max(1.0, np.max(np.abs(eta.values.real)))))
    phi = _band_limited(grid, 8, 3.0, seed + 1)
    h1 = _band_limited(grid, 5, 2.0, seed + 2).values.real
    h2 = _band_limited(grid, 5, 2.0, seed + 3).values.real
    sgrid = StripGrid(sigma=grid, n_y=24)

    def d(hval):
        return shape_derivative(profile, phi, ShapePerturbation(GridFn(grid, hval)),
                                sgrid).values.real

    combo = d(h1 + h2) - d(h1) - d(h2) + d(np.zeros(grid.n_sigma))
    scale = max(l2_norm(GridFn(grid, d(h1))), 1e-12)
    assert l2_norm(GridFn(grid, combo)) / scale < 1e-9


class TestCoefficientDerivative:
    def test_matches_central_fd(self, profile, hdir, grid):
        sgrid = StripGrid(sigma=grid, n_y=48)
        dA, dgam = d_eta_coefficients(profile, hdir, sgrid)
        base = profile.eta_tilde.values.real
        hv = hdir.h.values.real
        eps = 1e-3
        cp = assemble_coefficients(
            ConeProfile(profile.theta_star, GridFn(grid, base + eps * hv)), sgrid)
        cm = assemble_coefficients(
            ConeProfile(profile.theta_star, GridFn(grid, base - eps * hv)), sgrid)
        for name, d in (("a11", dA.d11), ("a12", dA.d12), ("a22", dA.d22)):
            fd = (getattr(cp, name) - getattr(cm, name)) / (2 * eps)
            assert np.max(np.abs(fd - d)) < 1e-5 * np.max(np.abs(d))
        fdg = (cp.gamma - cm.gamma) / (2 * eps)
        assert np.max(np.abs(fdg - dgam)) < 1e-5 * np.max(np.abs(dgam))

    def test_fd_gap_is_quadratic_in_eps(self, profile, hdir, grid):
        sgrid = StripGrid(sigma=grid, n_y=32)
        dA, _ = d_eta_coefficients(profile, hdir, sgrid)
        base = profile.eta_tilde.values.real
        hv = hdir.h.values.real
        errs = []
        for eps in (1e-2, 1e-3):
            cp = assemble_coefficients(
                ConeProfile(profile.theta_star, GridFn(grid, base + eps * hv)), sgrid)
            cm = assemble_coefficients(
                ConeProfile(profile.theta_star, GridFn(grid, base - eps * hv)), sgrid)
            fd = (cp.a11 - cm.a11) / (2 * eps)
            errs.append(np.max(np.abs(fd - dA.d11)))
        slope = math.log10(errs[0] / errs[1]) / 1.0
        assert 1.7 < slope < 2.3

    def test_omega_small_angle_limit(self):
        th = np.array([1e-8, 1e-6, 5e-5])
        ref = -th / 3.0 + th**3 / 30.0
        assert np.max(np.abs(_omega(th) - ref)) < 1e-15
        # continuity across the series/direct switch at 1e-4 (gap small enough
        # that the function's own variation is negligible; the direct branch
        # carries ~1e-12 cancellation rounding there)
        lo, hi = _omega(np.array([1e-4 * (1 - 1e-12)])), _omega(np.array([1e-4 * (1 + 1e-12)]))
        assert abs(lo[0] - hi[0]) < 1e-11

    def test_flat_gamma_derivative_closed_form(self, grid, angle, hdir):
        # on the exact cone the weight derivative at the boundary row is
        # h (sin t + t cos t)/4 with t = y_c theta*
        sgrid = StripGrid(sigma=grid, n_y=32)
        flat = ConeProfile.flat(grid, angle)
        _, dgam = d_eta_coefficients(flat, hdir, sgrid)
        t = sgrid.centers[None, :] * angle.theta_star
        ref = hdir.h.values.real[:, None] * (np.sin(t) + t * np.cos(t)) / 4.0
        assert np.max(np.abs(dgam - ref)) < 1e-14

    def test_grid_mismatch_rejected(self, profile, hdir):
        other = SigmaGrid(L=8.0, n_sigma=64)
        with pytest.raises(DomainError):
            d_eta_coefficients(profile, hdir, StripGrid(sigma=other, n_y=32))


class TestVarpiField:
    def test_flat_zero_direction_is_sigma_derivative(self, grid, angle, phi):
        sgrid = StripGrid(sigma=grid, n_y=32)
        flat = ConeProfile.flat(grid, angle)
        v = solve_strip(flat, phi, sgrid)
        w = varpi_field(flat, v, ShapePerturbation(GridFn.zeros(grid)))
        ref = dsigma_values(grid, v.values)
        assert np.max(np.abs(w.values - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_trace_is_direction_weighted_data(self, profile, phi, hdir, grid):
        # trace at y=1 converges to h B + V at second order
        errs = []
        for n_y in (32, 64, 128):
            sgrid = StripGrid(sigma=grid, n_y=n_y)
            res = dn_general(profile, phi, sgrid)
            w = varpi_field(profile, res.field, hdir)
            target = (hdir.h.values.real * res.b_normal.values.real
                      + res.v_tangential.values.real)
            errs.append(np.max(np.abs(w.boundary_trace() - target))
                        / np.max(np.abs(target)))
        assert errs[0] < 1e-2
        assert errs[0] / errs[1] > 2.5 and errs[1] / errs[2] > 2.5

    def test_solves_variation_equation(self, profile, phi, hdir, grid):
        # [DERIVED] varpi carries the domain variation: it equals the
        # harmonic extension of (h B + V) plus the derivative of the solved
        # field in the profile direction, with a second-order gap
        hv = hdir.h.values.real
        base = profile.eta_tilde.values.real
        gaps = []
        for n_y in (32, 128):
            sgrid = StripGrid(sigma=grid, n_y=n_y)
            res = dn_general(profile, phi, sgrid)
            w = varpi_field(profile, res.field, hdir)
            data = GridFn(grid, hv * res.b_normal.values.real
                          + res.v_tangential.values.real)
            ext = solve_strip(profile, data, sgrid)
            eps = 1e-5
            vp = solve_strip(ConeProfile(profile.theta_star,
                                         GridFn(grid, base + eps * hv)), phi, sgrid)
            vm = solve_strip(ConeProfile(profile.theta_star,
                                         GridFn(grid, base - eps * hv)), phi, sgrid)
            target = ext.values + (vp.values - vm.values) / (2 * eps)
            gaps.append(np.max(np.abs(w.values - target)) / np.max(np.abs(target)))
        assert gaps[1] < 2e-4
        assert gaps[0] / gaps[1] > 8.0

    def test_station_fields_rejected(self, grid, angle, phi, hdir):
        from conedn import StripField, extend_flat
        table = build_symbol_table(grid, angle)
        thetas = np.linspace(angle.theta_star / 4, angle.theta_star, 8)
        sampled = extend_flat(phi, thetas, table)
        flat = ConeProfile.flat(grid, angle)
        with pytest.raises(DomainError):
            varpi_field(flat, sampled, hdir)


class TestCancellation:
    def test_zero_data(self, profile, grid):
        sgrid = StripGrid(sigma=grid, n_y=32)
        q, _ = cancellation_quantity(profile, GridFn.zeros(grid), sgrid)
        assert np.max(np.abs(q.values)) == 0.0

    def test_gain_on_perturbed_profile(self, angle):
        # [PAPER] the combination loses one full order of the individual terms
        grid = SigmaGrid(L=8.0, n_sigma=256)
        eta = GridFn.from_callable(grid, lambda s: 0.1 * np.exp(-((s / 1.5) ** 2)))
        prof = ConeProfile(theta_star=angle, eta_tilde=eta)
        n = grid.n_sigma
        c = np.zeros(n, dtype=complex)
        k = np.arange(1, n // 2)
        zk = math.pi * k / grid.L
        c[1:n // 2] = (1 + zk**2) ** (-2.0) * np.exp(1j * (0.7 * k + 0.31 * k * k))
        c[-1:-n // 2:-1] = np.conj(c[1:n // 2])
        phi = GridFn(grid, to_gridfn(Spectrum(grid, c)).values.real)
        q, rep = cancellation_quantity(prof, phi, StripGrid(sigma=grid, n_y=128))
        assert rep.passed
        assert rep.gain >= 0.8
        assert -3.4 < rep.slopes["q"] < -2.6
        for key in ("g_of_b", "g_of_v", "dsigma_b", "dsigma_v"):
            assert -2.35 < rep.slopes[key] < -1.65

    def test_report_serializes(self, profile, phi, grid):
        _, rep = cancellation_quantity(profile, phi, StripGrid(sigma=grid, n_y=32))
        d = rep.to_json_dict()
        assert set(d) == {"slopes", "gain", "pass"}
        assert set(d["slopes"]) == {"q", "g_of_b", "g_of_v", "dsigma_b", "dsigma_v"}
        json.dumps(d)

    def test_flat_symbol_plateau(self, angle):
        # |g^2 - zeta^2|/<zeta> stays bounded out to zeta = 200: the naive
        # size of either term alone is <zeta>^2
        grid = SigmaGrid(L=8.0, n_sigma=1024)
        table = build_symbol_table(grid, angle)
        vals = flat_cancellation_symbol(table.g, grid.zeta)
        assert np.all(np.isfinite(vals))
        assert np.max(vals) < 2.0
        z = np.abs(grid.zeta)
        band = vals[z >= 100.0]
        assert (band.max() - band.min()) / band.max() < 0.05


class TestStokesCoefficients:
    def test_matches_kernel_and_derivatives(self, angle):
        m = np.arange(0.0, 9.0)
        tab = stokes_coefficients(angle, m, order=2)
        th = angle.theta_star
        for k, fn in ((0, lambda z: conical_p(z, th)),
                      (1, lambda z: conical_p_dtheta(z, th, 1)),
                      (2, lambda z: conical_p_dtheta(z, th, 2))):
            ref = np.array([fn(z) for z in m])
            assert np.max(np.abs(tab.a[k] - ref) / np.abs(ref)) < 1e-10

    def test_large_frequency_agreement(self, angle):
        big = np.array([50.0, 200.0, 400.0])
        tab = stokes_coefficients(angle, big, order=1)
        th = angle.theta_star
        ref = np.array([conical_p(z, th) for z in big])
        assert np.max(np.abs(tab.a[0] - ref) / ref) < 1e-12

    def test_ratio_matches_symbol_table(self, grid, angle, coeff_table):
        table = build_symbol_table(grid, angle)
        ratio = coeff_table.a[1] / coeff_table.a[0]
        assert np.max(np.abs(ratio - table.g)) / np.max(table.g) < 1e-6

    def test_second_derivative_ode_consistency(self, angle, coeff_table):
        # a2 = (1/4 + m^2) a0 - cot(theta*) a1 on every frequency
        th = angle.theta_star
        m2 = coeff_table.m_values**2
        cot = math.cos(th) / math.sin(th)
        ref = (0.25 + m2) * coeff_table.a[0] - cot * coeff_table.a[1]
        assert np.max(np.abs(coeff_table.a[2] - ref) / np.abs(ref)) < 1e-12

    def test_order_validated(self, angle):
        with pytest.raises(DomainError):
            stokes_coefficients(angle, np.array([1.0]), order=3)

    def test_empty_frequencies_rejected(self, angle):
        with pytest.raises(DomainError):
            stokes_coefficients(angle, np.array([]), order=1)

    def test_divergence_advises_symbol_route(self, angle):
        p = ConicalParams(series_max_terms=32)
        with pytest.raises(EvaluationError, match="symbol"):
            stokes_coefficients(angle, np.array([400.0]), order=0, p=p)

    def test_positivity_invariant_enforced(self, angle):
        with pytest.raises(EvaluationError):
            StokesCoeffs(theta_star=angle, order=0, m_values=np.array([1.0]),
                         a=np.array([[-1.0]]))


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.15, max_value=2.2),
       st.floats(min_value=0.0, max_value=30.0))
def test_stokes_zeroth_matches_kernel_property(theta, m):
    # upper angle limit keeps sin^2(theta/2) away from 1, where the series
    # needs unboundedly many terms and the advisory error takes over
    tab = stokes_coefficients(ConeAngle(theta), np.array([m]), order=0)
    ref = conical_p(m, theta)
    assert abs(tab.a[0, 0] - ref) < 1e-11 * abs(ref)


class TestGradedExpansion:
    def test_degree_zero_is_flat_multiplier(self, grid, angle, phi, coeff_table):
        table = build_symbol_table(grid, angle)
        g0 = stokes_g_ell(coeff_table, GridFn.zeros(grid), 0, phi)
        ref = dn_flat(phi, table)
        assert np.max(np.abs(g0.values - ref.values)) < 1e-12 * np.max(np.abs(ref.values))

    def test_zero_shape_kills_higher_degrees(self, grid, phi, coeff_table):
        z = GridFn.zeros(grid)
        for ell in (1, 2):
            assert np.max(np.abs(stokes_g_ell(coeff_table, z, ell, phi).values)) == 0.0

    def test_degree_one_explicit_form(self, grid, angle, coeff_table):
        # oracle multipliers from the quadrature symbol table and the angular
        # equation; data band-limited so products stay alias-free
        table = build_symbol_table(grid, angle)
        th = angle.theta_star
        phi = _band_limited(grid, 20, 2.0, 5)
        eta = _band_limited(grid, 10, 2.0, 6)
        g, z2 = table.g, grid.zeta**2
        cot = math.cos(th) / math.sin(th)
        h2 = (0.25 + z2) - cot * g

        def mult(sym, f):
            return to_gridfn(Spectrum(grid, to_spectrum(f).coeffs * sym))

        ev = eta.values.real
        es = dsigma_values(grid, ev)
        lam_phi = mult(g, phi)
        oracle = (-mult(g, GridFn(grid, ev * lam_phi.values)).values
                  + ev * mult(h2, phi).values
                  - es * dsigma_values(grid, phi.values.real))
        got = stokes_g_ell(coeff_table, eta, 1, phi).values
        assert np.max(np.abs(got - oracle)) < 1e-11 * np.max(np.abs(oracle))

    def test_degree_two_explicit_form(self, grid, angle, coeff_table):
        table = build_symbol_table(grid, angle)
        th = angle.theta_star
        phi = _band_limited(grid, 20, 2.0, 7)
        eta = _band_limited(grid, 10, 2.0, 8)
        g, z2 = table.g, grid.zeta**2
        cot = math.cos(th) / math.sin(th)
        csc2 = 1.0 / math.sin(th) ** 2
        h2 = (0.25 + z2) - cot * g
        h3 = (0.25 + z2 + csc2) * g - cot * h2

        def mult(sym, f):
            return to_gridfn(Spectrum(grid, to_spectrum(f).coeffs * sym))

        ev = eta.values.real
        es = dsigma_values(grid, ev)
        lam = lambda f: mult(g, f)
        tm = lambda a, f: GridFn(grid, a * f.values)
        inner = tm(ev, lam(tm(ev, lam(phi)))) - tm(0.5 * ev**2, mult(h2, phi))
        oracle = (lam(inner).values
                  - ev * mult(h2, tm(ev, lam(phi))).values
                  + 0.5 * ev**2 * mult(h3, phi).values
                  + es**2 * lam(phi).values)
        got = stokes_g_ell(coeff_table, eta, 2, phi).values
        assert np.max(np.abs(got - oracle)) < 1e-10 * np.max(np.abs(oracle))

    def test_partial_sum_remainder_is_cubic(self, grid, angle, coeff_table):
        # [PAPER] dn_general - (G0 + G1 + G2)[eps shape] shrinks like eps^3;
        # the eps-independent discrete bias is measured at eps=0 and removed
        shape = _band_limited(grid, 6, 3.0, 11)
        sv = shape.values.real / np.max(np.abs(shape.values.real))
        phi = _band_limited(grid, 12, 3.0, 12)
        sgrid = StripGrid(sigma=grid, n_y=384)
        flat = ConeProfile.flat(grid, angle)
        delta0 = (dn_general(flat, phi, sgrid).g_of_phi.values.real
                  - stokes_g_ell(coeff_table, GridFn.zeros(grid), 0, phi).values.real)
        eps_list = (0.02, 0.01, 0.005)
        rems = []
        for eps in eps_list:
            prof = ConeProfile(angle, GridFn(grid, eps * sv))
            full = dn_general(prof, phi, sgrid).g_of_phi.values.real
            approx = sum(stokes_g_ell(coeff_table, GridFn(grid, eps * sv), l,
                                      phi).values.real for l in range(3))
            rems.append(l2_norm(GridFn(grid, full - approx - delta0)))
        slope = np.polyfit(np.log(eps_list), np.log(rems), 1)[0]
        assert 2.5 < slope < 3.5

    def test_degree_validated(self, grid, phi, coeff_table):
        with pytest.raises(DomainError):
            stokes_g_ell(coeff_table, GridFn.zeros(grid), 3, phi)

    def test_frequency_mismatch_rejected(self, grid, angle, phi):
        other = stokes_coefficients(angle, np.abs(grid.zeta) + 0.5, order=2)
        with pytest.raises(DomainError):
            stokes_g_ell(other, GridFn.zeros(grid), 1, phi)

    def test_needs_full_table(self, grid, angle, phi):
        partial = stokes_coefficients(angle, np.abs(grid.zeta), order=1)
        with pytest.raises(DomainError):
            stokes_g_ell(partial, GridFn.zeros(grid), 1, phi)
