"""Physical-layer conversion, curvature, field energy, stationary balance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedn import (
    ConeAngle,
    ConeProfile,
    ConfigurationError,
    DomainError,
    GridFn,
    PhysicalParams,
    SigmaGrid,
    StripGrid,
    SurfaceTheta,
    conical_p_dtheta,
    conical_p_log,
    convert_dn,
    dn_general,
    electric_functional,
    equilibrium_constant,
    l2_norm,
    legendre_half,
    mean_curvature,
    taylor_angle,
    to_physical_unknown,
    to_strip_unknown,
    zakharov_rhs,
)
from conedn.physics import _exterior_dn


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
def flat_surface(grid, angle):
    return SurfaceTheta(ConeProfile(angle, GridFn.zeros(grid)))


@pytest.fixture(scope="module")
def bump_surface(grid, angle):
    eta = GridFn.from_callable(grid, lambda s: 0.1 * np.exp(-((s / 1.2) ** 2)))
    return SurfaceTheta(ConeProfile(angle, eta))


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
        kv[j] = math.exp(conical_p_log(zeta, tt))
        k1v[j] = conical_p_dtheta(zeta, tt, 1)
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


class TestSurfaceTheta:
    def test_flat_surface_angle_and_slope(self, flat_surface, angle):
        assert np.all(flat_surface.theta_of_r == angle.theta_star)
        assert np.max(np.abs(flat_surface.d_r_theta)) == 0.0

    def test_slope_matches_difference_quotients(self, angle):
        # refined grid keeps the nonuniform-gradient truncation error small
        g = SigmaGrid(L=8.0, n_sigma=16384)
        eta = GridFn.from_callable(g, lambda s: 0.1 * np.exp(-((s / 1.2) ** 2)))
        surf = SurfaceTheta(ConeProfile(angle, eta))
        fd = np.gradient(surf.theta_of_r, surf.r, edge_order=2)
        err = np.abs(surf.d_r_theta - fd)[2:-2]
        scale = np.max(np.abs(surf.d_r_theta))
        assert np.max(err) / scale < 1e-6


class TestUnknownMaps:
    def test_round_trip_is_identity(self, grid):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=grid.n_sigma) + 1j * rng.normal(size=grid.n_sigma)
        psi = GridFn(grid, vals)
        back = to_physical_unknown(to_strip_unknown(psi))
        assert np.max(np.abs(back.values - vals)) < 1e-12 * np.max(np.abs(vals))

    def test_half_power_weight(self, grid):
        psi = GridFn(grid, np.exp(grid.sigma / 2.0))
        phi = to_strip_unknown(psi)
        assert np.max(np.abs(phi.values - 1.0)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_unknown_map_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    g = SigmaGrid(L=float(rng.uniform(2.0, 12.0)), n_sigma=64)
    vals = rng.normal(size=64) + 1j * rng.normal(size=64)
    back = to_physical_unknown(to_strip_unknown(GridFn(g, vals)))
    assert np.max(np.abs(back.values - vals)) <= 1e-12 * np.max(np.abs(vals))


class TestConvertDn:
    def test_zero_data_zero_flux(self, flat_surface, grid):
        phi = GridFn.zeros(grid)
        res = dn_general(flat_surface.profile, phi, StripGrid(sigma=grid, n_y=32))
        out = convert_dn(flat_surface.profile, res, phi)
        assert np.max(np.abs(out.values)) == 0.0

    def test_flat_profile_is_weighted_strip_flux(self, flat_surface, grid):
        phi = GridFn.from_callable(grid, lambda s: np.exp(-((s / 1.8) ** 2)))
        res = dn_general(flat_surface.profile, phi, StripGrid(sigma=grid, n_y=32))
        out = convert_dn(flat_surface.profile, res, phi)
        ref = np.exp(2.5 * grid.sigma) * res.g_of_phi.values
        assert np.array_equal(out.values, ref)

    def test_grid_mismatch_rejected(self, flat_surface, grid):
        other = SigmaGrid(L=8.0, n_sigma=64)
        phi = GridFn.zeros(grid)
        res = dn_general(flat_surface.profile, phi, StripGrid(sigma=grid, n_y=32))
        with pytest.raises(DomainError):
            convert_dn(flat_surface.profile, res, GridFn.zeros(other))

    def test_manufactured_harmonic_round_trip(self, bump_surface, grid):
        # exact boundary flux of a known harmonic pins the whole chain:
        # half-power pullback, strip solve, trace combination, conversion
        prof = bump_surface.profile
        zeta = math.pi * 4.0 / grid.L
        psi, flux = _conical_harmonic(prof, zeta)
        phi = to_strip_unknown(psi)
        errs = []
        for n_y in (32, 64, 128):
            res = dn_general(prof, phi, StripGrid(sigma=grid, n_y=n_y))
            got = convert_dn(prof, res, phi)
            errs.append(l2_norm(GridFn(grid, got.values - flux))
                        / l2_norm(GridFn(grid, flux)))
        assert errs[-1] < 5e-5
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(slopes > 1.7) and np.all(slopes < 2.3)


class TestMeanCurvature:
    def test_flat_cone_closed_form(self, flat_surface, angle, grid):
        got = mean_curvature(flat_surface).values
        ref = -np.exp(grid.sigma) / math.tan(angle.theta_star) / 2.0
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_right_angle_cone_is_minimal(self, grid):
        surf = SurfaceTheta(ConeProfile(ConeAngle(math.pi / 2.0),
                                        GridFn.zeros(grid)))
        got = mean_curvature(surf).values
        assert np.max(np.abs(got)) < 1e-12

    def test_matches_refined_difference_quotients(self, angle):
        refine = 128
        gf = SigmaGrid(L=8.0, n_sigma=128 * refine)
        etaf = GridFn.from_callable(gf, lambda s: 0.05 * np.exp(-(s**2)))
        th = ConeProfile(angle, etaf).eta
        r = gf.r
        dth = np.gradient(th, r, edge_order=2)
        sq = np.sqrt(1.0 + (r * dth) ** 2)
        d_inner = np.gradient(r * dth / (2.0 * sq), r, edge_order=2)
        h_fd = d_inner + dth / sq - np.cos(th) / np.sin(th) / (2.0 * r * sq)

        g = SigmaGrid(L=8.0, n_sigma=128)
        eta = GridFn.from_callable(g, lambda s: 0.05 * np.exp(-(s**2)))
        got = mean_curvature(SurfaceTheta(ConeProfile(angle, eta))).values.real
        err = np.abs(got - h_fd[::refine])[2:-2]
        assert np.max(err / np.abs(h_fd[::refine])[2:-2]) < 1e-6


class TestEquilibriumConstant:
    def test_taylor_value(self, params):
        c = equilibrium_constant(params)
        assert c < 0
        assert abs(c - (-0.7488045161667062)) < 1e-10

    def test_scaling_in_material_constants(self, params):
        base = equilibrium_constant(params)
        quad_kappa = PhysicalParams(kappa=4 * params.kappa, rho=params.rho,
                                    epsilon=params.epsilon, C=1.0)
        quad_eps = PhysicalParams(kappa=params.kappa, rho=params.rho,
                                  epsilon=4 * params.epsilon, C=1.0)
        assert equilibrium_constant(quad_kappa) == 2 * base
        assert equilibrium_constant(quad_eps) == base / 2

    def test_obtuse_angle_rejected(self, params):
        with pytest.raises(DomainError):
            equilibrium_constant(params, ConeAngle(2.0))


class TestElectricFunctional:
    def test_flat_equilibrium_closed_form(self, flat_surface, params, grid):
        # conical datum vanishes at the equilibrium root, so only the
        # gradient of the imposed far field survives: E2 = C^2 P1^2 / r
        e2 = electric_functional(flat_surface, params,
                                 StripGrid(sigma=grid, n_y=64)).values.real
        _, p1 = legendre_half(flat_surface.profile.theta_star.theta_star)
        ref = params.C**2 * p1**2 * np.exp(grid.sigma)
        assert np.max(np.abs(e2 - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_quadratic_in_field_strength(self, bump_surface, params, grid):
        sgrid = StripGrid(sigma=grid, n_y=32)
        e2 = electric_functional(bump_surface, params, sgrid).values
        doubled = PhysicalParams(kappa=params.kappa, rho=params.rho,
                                 epsilon=params.epsilon, C=2 * params.C)
        e2_doubled = electric_functional(bump_surface, doubled, sgrid).values
        assert np.array_equal(e2_doubled, 4.0 * e2)

    def test_far_field_decay_rate(self, bump_surface, params, grid):
        e2 = electric_functional(bump_surface, params,
                                 StripGrid(sigma=grid, n_y=64)).values.real
        s = grid.sigma
        mask = (s >= -7.0) & (s <= -4.0)
        slope = np.polyfit(np.log(grid.r[mask]), np.log(e2[mask]), 1)[0]
        assert abs(slope + 1.0) < 0.05

    def test_exterior_flux_against_manufactured_harmonic(self, bump_surface,
                                                         grid):
        # a sign error in the reflection would show up at O(1), not O(dy^2)
        prof = bump_surface.profile
        zeta = math.pi * 4.0 / grid.L
        xi, flux = _conical_harmonic(prof, zeta, exterior=True)
        errs = []
        for n_y in (32, 64, 128):
            got = _exterior_dn(bump_surface, xi, StripGrid(sigma=grid, n_y=n_y))
            errs.append(l2_norm(GridFn(grid, got.values - flux))
                        / l2_norm(GridFn(grid, flux)))
        assert errs[-1] < 2e-4
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(slopes > 1.6) and np.all(slopes < 2.4)

    def test_grid_mismatch_rejected(self, bump_surface, params):
        other = SigmaGrid(L=8.0, n_sigma=64)
        with pytest.raises(DomainError):
            electric_functional(bump_surface, params,
                                StripGrid(sigma=other, n_y=32))


class TestZakharovRhs:
    def test_equilibrium_is_stationary(self, flat_surface, params, grid):
        c_star = equilibrium_constant(params)
        eq = PhysicalParams(kappa=params.kappa, rho=params.rho,
                            epsilon=params.epsilon, C=c_star)
        sgrid = StripGrid(sigma=grid, n_y=64)
        rhs_theta, rhs_psi = zakharov_rhs(flat_surface, GridFn.zeros(grid),
                                          eq, sgrid)
        assert np.max(np.abs(rhs_theta.values)) == 0.0
        curv = mean_curvature(flat_surface).values
        yard = (eq.kappa / eq.rho) * np.max(np.abs(curv))
        assert np.max(np.abs(rhs_psi.values)) < 1e-12 * yard

    def test_doubled_field_strength_closed_form(self, flat_surface, params,
                                                grid, angle):
        c_star = equilibrium_constant(params)
        p2 = PhysicalParams(kappa=params.kappa, rho=params.rho,
                            epsilon=params.epsilon, C=2.0 * c_star)
        sgrid = StripGrid(sigma=grid, n_y=64)
        rhs_theta, rhs_psi = zakharov_rhs(flat_surface, GridFn.zeros(grid),
                                          p2, sgrid)
        assert np.max(np.abs(rhs_theta.values)) == 0.0
        # quadrupled electric pull against unchanged capillarity
        ref = 1.5 * p2.kappa / math.tan(angle.theta_star) / (p2.rho * grid.r)
        rel = (l2_norm(GridFn(grid, rhs_psi.values - ref))
               / l2_norm(GridFn(grid, ref)))
        assert rel < 1e-12

    def test_zero_potential_keeps_angle_stationary(self, bump_surface, params,
                                                   grid):
        rhs_theta, rhs_psi = zakharov_rhs(bump_surface, GridFn.zeros(grid),
                                          params, StripGrid(sigma=grid, n_y=32))
        assert np.max(np.abs(rhs_theta.values)) == 0.0
        assert np.all(np.isfinite(rhs_psi.values))

    def test_kinematic_rhs_is_converted_flux(self, bump_surface, params, grid):
        prof = bump_surface.profile
        s = grid.sigma
        psi = GridFn(grid, np.exp(s / 2.0) * np.cos(math.pi * 4.0 / grid.L * s))
        sgrid = StripGrid(sigma=grid, n_y=64)
        rhs_theta, _ = zakharov_rhs(bump_surface, psi, params, sgrid)
        phi = to_strip_unknown(psi)
        ref = convert_dn(prof, dn_general(prof, phi, sgrid), phi)
        assert np.max(np.abs(rhs_theta.values - ref.values)) == 0.0

    def test_psi_grid_mismatch_rejected(self, bump_surface, params, grid):
        other = SigmaGrid(L=8.0, n_sigma=64)
        with pytest.raises(DomainError):
            zakharov_rhs(bump_surface, GridFn.zeros(other), params,
                         StripGrid(sigma=grid, n_y=32))
