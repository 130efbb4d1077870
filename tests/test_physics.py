"""Physical-layer conversion, curvature, field energy, stationary balance."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedn import (
    ConeAngle,
    ConeProfile,
    ConfigurationError,
    DomainError,
    EvaluationError,
    GridFn,
    PhysicalParams,
    SigmaGrid,
    StripGrid,
    dn_general,
    dn_physical,
    electric_functional,
    equilibrium_residual,
    l2_norm,
    legendre_half,
    mean_curvature,
    taylor_angle,
    to_physical_unknown,
    to_strip_unknown,
    zakharov_terms,
)
from conedn import physics
from conedn.conical import quad_log_k
from conedn.physics import _ROOT_SNAP, _exterior_dn, _legendre_pair_on_profile


@pytest.fixture(scope="module")
def angle():
    return taylor_angle()


@pytest.fixture(scope="module")
def grid():
    return SigmaGrid(L=8.0, n_sigma=128)


@pytest.fixture(scope="module")
def params():
    return PhysicalParams(kappa=1.3, rho=0.7, epsilon=2.1, C=1.0)


@pytest.fixture(scope="module")
def flat_profile(grid, angle):
    return ConeProfile(angle, GridFn.zeros(grid))


@pytest.fixture(scope="module")
def bump_profile(grid, angle):
    eta = GridFn(grid, 0.1 * np.exp(-((grid.sigma / 1.2) ** 2)))
    return ConeProfile(angle, eta)


def test_legendre_pair_on_profile_matches_node_calls(bump_profile):
    p, p1 = _legendre_pair_on_profile(bump_profile)
    ref = np.array([legendre_half(float(t)) for t in bump_profile.eta]).T
    ref[0][np.abs(ref[0]) <= _ROOT_SNAP] = 0.0
    assert np.array_equal(p == 0.0, ref[0] == 0.0)
    assert np.all(np.abs(p - ref[0]) <= 1e-14 * np.maximum(1.0, np.abs(ref[0])))
    assert np.all(np.abs(p1 - ref[1]) <= 1e-14 * np.abs(ref[1]))


def _conical_harmonic(prof, zeta, exterior=False):
    """Surface trace and exact boundary flux of the separated harmonic
    r^{-1/2} cos(zeta ln(1/r)) k(zeta, theta); the exterior variant carries
    the kernel regular at theta = pi instead."""
    grid = prof.grid
    s = grid.sigma
    kv = np.empty(grid.n_sigma)
    k1v = np.empty(grid.n_sigma)
    for j, t in enumerate(prof.eta):
        tt = math.pi - t if exterior else t
        log_k, ratio = quad_log_k(zeta, np.array([tt]), want_deriv=True)
        kv[j] = math.exp(float(log_k[0]))
        k1v[j] = float(ratio[0]) * kv[j]
    if exterior:
        k1v = -k1v
    cos_ = np.cos(zeta * s)
    sin_ = np.sin(zeta * s)
    psi = GridFn(grid, np.exp(s / 2.0) * cos_ * kv)
    flux = np.exp(2.5 * s) * (cos_ * k1v
                              - prof.eta_sigma * (0.5 * cos_ - zeta * sin_) * kv)
    return psi, flux


class TestPhysicalParams:
    def test_positive_constants_required(self):
        for bad in ({"kappa": -1.0}, {"rho": 0.0}, {"epsilon": -0.5}):
            kw = dict(kappa=1.3, rho=0.7, epsilon=2.1, C=1.0)
            kw.update(bad)
            with pytest.raises(ConfigurationError):
                PhysicalParams(**kw)

    def test_zero_field_strength_rejected(self):
        with pytest.raises(ConfigurationError):
            PhysicalParams(kappa=1.3, rho=0.7, epsilon=2.1, C=0.0)

    def test_non_finite_constants_rejected(self):
        for bad in ({"kappa": math.inf}, {"rho": math.inf}, {"epsilon": math.inf},
                    {"C": math.nan}, {"C": math.inf}, {"C": -math.inf}):
            kw = dict(kappa=1.3, rho=0.7, epsilon=2.1, C=1.0)
            kw.update(bad)
            with pytest.raises(ConfigurationError, match="finite"):
                PhysicalParams(**kw)
        # C* = -inf at an infinite kappa
        with pytest.raises(ConfigurationError, match="finite"):
            PhysicalParams.at_equilibrium(math.inf, 1.0, 1.0)

    @pytest.mark.parametrize("kappa, epsilon", [(0.0, 1.0), (1.0, -2.0)])
    def test_equilibrium_refuses_nonpositive_constants(self, kappa, epsilon):
        with pytest.raises(ConfigurationError, match="kappa, epsilon must be positive"):
            PhysicalParams.at_equilibrium(kappa, 1.0, epsilon)

    def test_equilibrium_refuses_nonpositive_associated_value(self, angle, monkeypatch):
        # C* divides by P^1_{1/2}(-cos theta*), positive at every angle below pi/2
        monkeypatch.setattr(physics, "legendre_half", lambda theta: (0.0, -1.0))
        with pytest.raises(EvaluationError, match="associated Legendre value unexpectedly"):
            PhysicalParams.at_equilibrium(1.3, 0.7, 2.1, angle)


class TestUnknownMaps:
    def test_round_trip_is_identity(self, grid):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=grid.n_sigma)
        psi = GridFn(grid, vals)
        back = to_physical_unknown(to_strip_unknown(psi))
        assert np.max(np.abs(back.values - vals)) < 1e-12 * np.max(np.abs(vals))

    def test_half_power_weight(self, grid):
        psi = GridFn(grid, np.exp(grid.sigma / 2.0))
        phi = to_strip_unknown(psi)
        assert np.max(np.abs(phi.values - 1.0)) < 1e-12

    @pytest.mark.parametrize("L", [1419.0, 1420.0])
    def test_window_beyond_weight_overflow_refused(self, L):
        # e^{sigma/2} is finite up to sigma = 2 ln(DBL_MAX) = 1419.6: below it
        # both maps stay finite, above it neither takes an exponential
        g = SigmaGrid(L=L, n_sigma=64)
        f = GridFn(g, np.ones(64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for convert in (to_strip_unknown, to_physical_unknown):
                if L < 1419.6:
                    assert np.all(np.isfinite(convert(f).values))
                else:
                    with pytest.raises(EvaluationError,
                                       match=r"grid\.L = 1420 exceeds 2 ln\(DBL_MAX\) = 1419\.6"):
                        convert(f)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_unknown_map_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    g = SigmaGrid(L=float(rng.uniform(2.0, 12.0)), n_sigma=64)
    vals = rng.normal(size=64)
    back = to_physical_unknown(to_strip_unknown(GridFn(g, vals)))
    assert np.max(np.abs(back.values - vals)) <= 1e-12 * np.max(np.abs(vals))


class TestDnPhysical:
    def test_zero_data_zero_flux(self, flat_profile, grid):
        out = dn_physical(flat_profile, GridFn.zeros(grid), StripGrid(sigma=grid, n_y=32))
        assert np.max(np.abs(out.values)) == 0.0

    def test_flat_profile_is_weighted_strip_flux(self, flat_profile, grid):
        psi = GridFn(grid, np.exp(-((grid.sigma / 1.8) ** 2)))
        sgrid = StripGrid(sigma=grid, n_y=32)
        out = dn_physical(flat_profile, psi, sgrid)
        res = dn_general(flat_profile, to_strip_unknown(psi), sgrid)
        ref = np.exp(2.5 * grid.sigma) * res.g_of_phi.values
        assert np.array_equal(out.values, ref)

    def test_grid_mismatch_rejected(self, flat_profile, grid):
        other = SigmaGrid(L=8.0, n_sigma=64)
        with pytest.raises(DomainError):
            dn_physical(flat_profile, GridFn.zeros(other), StripGrid(sigma=grid, n_y=32))

    @pytest.mark.parametrize("L", [283.0, 300.0])
    def test_window_beyond_weight_overflow_refused(self, angle, L):
        # e^{5 sigma/2} is finite up to sigma = 2 ln(DBL_MAX)/5 = 283.9: below
        # it the operator stays finite, above it no exponential is taken
        grid = SigmaGrid(L=L, n_sigma=64)
        prof = ConeProfile.flat(grid, angle)
        psi = GridFn(grid, np.exp(-(grid.sigma ** 2)))
        sgrid = StripGrid(sigma=grid, n_y=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if L < 283.9:
                assert np.all(np.isfinite(dn_physical(prof, psi, sgrid).values))
            else:
                with pytest.raises(EvaluationError, match=r"grid\.L = 300 exceeds .* = 283\.9"):
                    dn_physical(prof, psi, sgrid)

    def test_manufactured_harmonic_round_trip(self, bump_profile, grid):
        # exact boundary flux of a known harmonic pins the whole chain:
        # half-power pullback, strip solve, trace combination, conversion
        zeta = math.pi * 4.0 / grid.L
        psi, flux = _conical_harmonic(bump_profile, zeta)
        errs = []
        for n_y in (32, 64, 128):
            got = dn_physical(bump_profile, psi, StripGrid(sigma=grid, n_y=n_y))
            errs.append(l2_norm(GridFn(grid, got.values - flux))
                        / l2_norm(GridFn(grid, flux)))
        assert errs[-1] < 5e-5
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(slopes > 1.7) and np.all(slopes < 2.3)


class TestMeanCurvature:
    def test_flat_cone_closed_form(self, flat_profile, angle, grid):
        got = mean_curvature(flat_profile).values
        ref = -np.exp(grid.sigma) / math.tan(angle.theta_star) / 2.0
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_right_angle_cone_is_minimal(self, grid):
        prof = ConeProfile(ConeAngle(math.pi / 2.0), GridFn.zeros(grid))
        got = mean_curvature(prof).values
        assert np.max(np.abs(got)) < 1e-12

    def test_matches_refined_difference_quotients(self, angle):
        refine = 128
        gf = SigmaGrid(L=8.0, n_sigma=128 * refine)
        etaf = GridFn(gf, 0.05 * np.exp(-(gf.sigma**2)))
        th = ConeProfile(angle, etaf).eta
        r = gf.r
        dth = np.gradient(th, r, edge_order=2)
        sq = np.sqrt(1.0 + (r * dth) ** 2)
        d_inner = np.gradient(r * dth / (2.0 * sq), r, edge_order=2)
        h_fd = d_inner + dth / sq - np.cos(th) / np.sin(th) / (2.0 * r * sq)

        g = SigmaGrid(L=8.0, n_sigma=128)
        eta = GridFn(g, 0.05 * np.exp(-(g.sigma**2)))
        got = mean_curvature(ConeProfile(angle, eta)).values
        err = np.abs(got - h_fd[::refine])[2:-2]
        assert np.max(err / np.abs(h_fd[::refine])[2:-2]) < 1e-6

    @pytest.mark.parametrize("L", [709.0, 710.0])
    def test_window_beyond_weight_overflow_refused(self, angle, L):
        # e^sigma is finite up to sigma = ln(DBL_MAX) = 709.8: below it the
        # curvature stays finite, above it no exponential is taken
        prof = ConeProfile.flat(SigmaGrid(L=L, n_sigma=1024), angle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if L < 709.8:
                assert np.all(np.isfinite(mean_curvature(prof).values))
            else:
                with pytest.raises(EvaluationError,
                                   match=r"grid\.L = 710 exceeds ln\(DBL_MAX\) = 709\.8"):
                    mean_curvature(prof)


class TestEquilibriumConstant:
    def test_taylor_value(self, params):
        c = PhysicalParams.at_equilibrium(params.kappa, params.rho, params.epsilon).C
        assert c < 0
        assert abs(c - (-0.7488045161667062)) < 1e-10

    def test_scaling_in_material_constants(self, params):
        k, r, e = params.kappa, params.rho, params.epsilon
        base = PhysicalParams.at_equilibrium(k, r, e).C
        assert PhysicalParams.at_equilibrium(4 * k, r, e).C == 2 * base
        assert PhysicalParams.at_equilibrium(k, r, 4 * e).C == base / 2

    def test_obtuse_angle_rejected(self, params):
        with pytest.raises(DomainError):
            PhysicalParams.at_equilibrium(params.kappa, params.rho, params.epsilon,
                                          ConeAngle(2.0))


class TestElectricFunctional:
    def test_flat_equilibrium_closed_form(self, flat_profile, params, grid):
        # conical datum vanishes at the equilibrium root, so only the
        # gradient of the imposed far field survives: E2 = C^2 P1^2 / r
        e2 = electric_functional(flat_profile, params,
                                 StripGrid(sigma=grid, n_y=64)).values
        _, p1 = legendre_half(flat_profile.theta_star.theta_star)
        ref = params.C**2 * p1**2 * np.exp(grid.sigma)
        assert np.max(np.abs(e2 - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_quadratic_in_field_strength(self, bump_profile, params, grid):
        sgrid = StripGrid(sigma=grid, n_y=32)
        e2 = electric_functional(bump_profile, params, sgrid).values
        doubled = PhysicalParams(kappa=params.kappa, rho=params.rho,
                                 epsilon=params.epsilon, C=2 * params.C)
        e2_doubled = electric_functional(bump_profile, doubled, sgrid).values
        assert np.array_equal(e2_doubled, 4.0 * e2)

    def test_far_field_decay_rate(self, bump_profile, params, grid):
        e2 = electric_functional(bump_profile, params,
                                 StripGrid(sigma=grid, n_y=64)).values
        s = grid.sigma
        mask = (s >= -7.0) & (s <= -4.0)
        slope = np.polyfit(np.log(grid.r[mask]), np.log(e2[mask]), 1)[0]
        assert abs(slope + 1.0) < 0.05

    def test_exterior_flux_against_manufactured_harmonic(self, bump_profile,
                                                         grid):
        # a sign error in the reflection would show up at O(1), not O(dy^2)
        zeta = math.pi * 4.0 / grid.L
        xi, flux = _conical_harmonic(bump_profile, zeta, exterior=True)
        errs = []
        for n_y in (32, 64, 128):
            got = _exterior_dn(bump_profile, xi, StripGrid(sigma=grid, n_y=n_y))
            errs.append(l2_norm(GridFn(grid, got.values - flux))
                        / l2_norm(GridFn(grid, flux)))
        assert errs[-1] < 2e-4
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(slopes > 1.6) and np.all(slopes < 2.4)

    def test_grid_mismatch_rejected(self, bump_profile, params):
        other = SigmaGrid(L=8.0, n_sigma=64)
        with pytest.raises(DomainError):
            electric_functional(bump_profile, params,
                                StripGrid(sigma=other, n_y=32))

    @pytest.mark.parametrize("L", [283.0, 300.0])
    def test_window_beyond_weight_overflow_refused(self, angle, params, L):
        # the exterior operator's e^{5 sigma/2} bounds the grid: finite
        # below 283.9, refused above (at 1e6, where r itself would overflow,
        # in the guard test below)
        grid = SigmaGrid(L=L, n_sigma=64)
        prof = ConeProfile.flat(grid, angle)
        sgrid = StripGrid(sigma=grid, n_y=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if L < 283.9:
                assert np.all(np.isfinite(electric_functional(prof, params, sgrid).values))
            else:
                with pytest.raises(EvaluationError, match=r"grid\.L = 300 exceeds .* = 283\.9"):
                    electric_functional(prof, params, sgrid)


class TestZakharovRhs:
    def test_equilibrium_is_stationary(self, flat_profile, params, grid):
        eq = PhysicalParams.at_equilibrium(params.kappa, params.rho, params.epsilon)
        terms = zakharov_terms(flat_profile, GridFn.zeros(grid), eq,
                               StripGrid(sigma=grid, n_y=64))
        assert np.max(np.abs(terms.rhs_theta.values)) == 0.0
        curv = mean_curvature(flat_profile).values
        yard = (eq.kappa / eq.rho) * np.max(np.abs(curv))
        assert np.max(np.abs(terms.rhs_psi.values)) < 1e-12 * yard

    def test_doubled_field_strength_closed_form(self, flat_profile, params,
                                                grid, angle):
        c_star = PhysicalParams.at_equilibrium(params.kappa, params.rho,
                                               params.epsilon).C
        p2 = PhysicalParams(kappa=params.kappa, rho=params.rho,
                            epsilon=params.epsilon, C=2.0 * c_star)
        terms = zakharov_terms(flat_profile, GridFn.zeros(grid), p2,
                               StripGrid(sigma=grid, n_y=64))
        assert np.max(np.abs(terms.rhs_theta.values)) == 0.0
        # quadrupled electric pull against unchanged capillarity
        ref = 1.5 * p2.kappa / math.tan(angle.theta_star) / (p2.rho * grid.r)
        rel = (l2_norm(GridFn(grid, terms.rhs_psi.values - ref))
               / l2_norm(GridFn(grid, ref)))
        assert rel < 1e-12

    def test_zero_potential_keeps_angle_stationary(self, bump_profile, params,
                                                   grid):
        terms = zakharov_terms(bump_profile, GridFn.zeros(grid), params,
                               StripGrid(sigma=grid, n_y=32))
        assert np.max(np.abs(terms.rhs_theta.values)) == 0.0
        assert np.all(np.isfinite(terms.rhs_psi.values))

    def test_kinematic_rhs_is_converted_flux(self, bump_profile, params, grid):
        s = grid.sigma
        psi = GridFn(grid, np.exp(s / 2.0) * np.cos(math.pi * 4.0 / grid.L * s))
        sgrid = StripGrid(sigma=grid, n_y=64)
        rhs_theta = zakharov_terms(bump_profile, psi, params, sgrid).rhs_theta
        # the conversion written out: e^{5 sigma/2} (strip_dn(phi) - phi eta_s / 2)
        phi = to_strip_unknown(psi)
        g = dn_general(bump_profile, phi, sgrid).g_of_phi.values
        ref = np.exp(2.5 * s) * (g - 0.5 * phi.values * bump_profile.eta_sigma)
        assert np.max(np.abs(rhs_theta.values - ref)) == 0.0

    def test_psi_grid_mismatch_rejected(self, bump_profile, params, grid):
        other = SigmaGrid(L=8.0, n_sigma=64)
        with pytest.raises(DomainError):
            zakharov_terms(bump_profile, GridFn.zeros(other), params,
                           StripGrid(sigma=grid, n_y=32))

    def test_window_beyond_weight_overflow_refused(self, angle, params):
        # dn_physical's rule, applied before the first exponential: at
        # L = 1e6 e^{-sigma/2} would overflow before any strip solve
        grid = SigmaGrid(L=1e6, n_sigma=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError,
                               match=r"grid\.L = 1e\+06 exceeds 2 ln\(DBL_MAX\)/5 = 283\.9"):
                zakharov_terms(ConeProfile.flat(grid, angle), GridFn.zeros(grid), params,
                               StripGrid(sigma=grid, n_y=16))

    def test_residual_refuses_a_vanishing_scale(self, grid, angle):
        # kappa/rho = 1e-300/1e300 underflows to 0, and so does the scale
        tiny = PhysicalParams(kappa=1e-300, rho=1e300, epsilon=1.0, C=1.0)
        terms = zakharov_terms(ConeProfile.flat(grid, angle), GridFn.zeros(grid), tiny,
                               StripGrid(sigma=grid, n_y=16))
        with pytest.raises(EvaluationError, match=r"pressure scale .* is 0"):
            equilibrium_residual(terms, tiny)


def test_every_public_function_refuses_an_overflowing_weight(angle, params):
    # no weight is computed where it would overflow: at grid.L 1e6 every
    # public function that forms one refuses first, naming grid.L.  A new
    # public function needs an entry here or in the exemptions
    grid = SigmaGrid(L=1e6, n_sigma=64)
    prof = ConeProfile.flat(grid, angle)
    f = GridFn(grid, np.ones(64))
    sgrid = StripGrid(sigma=grid, n_y=16)
    calls = {
        "to_strip_unknown": lambda: to_strip_unknown(f),
        "to_physical_unknown": lambda: to_physical_unknown(f),
        "unknown_round_trip_gap": lambda: physics.unknown_round_trip_gap(f),
        "dn_physical": lambda: dn_physical(prof, f, sgrid),
        "mean_curvature": lambda: mean_curvature(prof),
        "electric_functional": lambda: electric_functional(prof, params, sgrid),
        "zakharov_terms": lambda: zakharov_terms(prof, f, params, sgrid),
    }
    # the two classes, and the residual, which reads finished terms: no grid weight
    exempt = {"PhysicalParams", "ZakharovTerms", "equilibrium_residual"}
    public = {name for name in physics.__all__ if callable(getattr(physics, name))}
    assert set(calls) | exempt == public
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in calls.items():
            with pytest.raises(EvaluationError, match=r"^grid\.L = 1e\+06 exceeds"):
                call()


def test_benchmark_shims_match_primary_routes(grid, angle):
    # the benchmark's workloads make these calls; they and this test go
    # once the workloads call the primary routes
    base = PhysicalParams(kappa=1.0, rho=1.0, epsilon=1.0, C=1.0)
    params = PhysicalParams.at_equilibrium(1.0, 1.0, 1.0, angle)
    assert physics.equilibrium_constant(base, angle) == params.C
    profile = ConeProfile.flat(grid, angle)
    surface = physics.SurfaceTheta(profile)
    assert surface is profile
    sgrid = StripGrid(sigma=grid, n_y=64)
    rhs_theta, rhs_psi = physics.zakharov_rhs(surface, GridFn.zeros(grid), params, sgrid)
    terms = zakharov_terms(profile, GridFn.zeros(grid), params, sgrid)
    assert np.array_equal(rhs_theta.values, terms.rhs_theta.values)
    assert np.array_equal(rhs_psi.values, terms.rhs_psi.values)
    assert np.array_equal(physics.mean_curvature(surface).values,
                          terms.curvature.values)
    copy = rhs_psi.real_values(tol=1e-8)
    assert np.array_equal(copy, rhs_psi.values) and copy.flags.writeable
