"""Shape derivative, cancellation, graded expansion."""

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
    SigmaGrid,
    StripGrid,
    build_expression,
    build_symbol_table,
    cancellation_quantity,
    dn_flat,
    dn_general,
    expansion_multipliers,
    l2_norm,
    legendre_dtheta,
    shape_derivative,
    stokes_g_ell,
    taylor_angle,
)
from conedn.config import load_config
from conedn.conical import dtheta_ratios_from_seed, quad_log_k
from conedn.grid import binary_scaled, mode_amplitudes
from conedn.shape import _tail_slope, shape_central_difference
from conedn.strip import dsigma_values

from complex_fields import to_gridfn


@pytest.fixture(scope="module")
def angle():
    return taylor_angle()


@pytest.fixture(scope="module")
def grid():
    return SigmaGrid(L=8.0, n_sigma=128)


@pytest.fixture(scope="module")
def coeff_table(grid, angle):
    return build_symbol_table(grid, angle)


# criterion data: gently perturbed profile, localized direction, modulated data
@pytest.fixture(scope="module")
def eta0(grid):
    return GridFn(grid, 0.1 * np.exp(-((grid.sigma / 1.5) ** 2)))


@pytest.fixture(scope="module")
def profile(grid, angle, eta0):
    return ConeProfile(theta_star=angle, eta_tilde=eta0)


@pytest.fixture(scope="module")
def hdir(grid):
    return GridFn(grid, np.exp(-((grid.sigma / 2.0) ** 2)))


def _modulated_gaussian(grid):
    zk = math.pi * 6 / grid.L
    s = grid.sigma
    return GridFn(grid, np.exp(-((s / 1.8) ** 2)) * np.cos(zk * s))


@pytest.fixture(scope="module")
def phi(grid):
    return _modulated_gaussian(grid)


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
    return to_gridfn(grid, c)


def _fd_direction(profile, phi, hval, sgrid, eps):
    grid = profile.grid
    base = profile.eta_tilde.values
    gp = dn_general(ConeProfile(profile.theta_star, GridFn(grid, base + eps * hval)),
                    phi, sgrid).g_of_phi.values
    gm = dn_general(ConeProfile(profile.theta_star, GridFn(grid, base - eps * hval)),
                    phi, sgrid).g_of_phi.values
    return (gp - gm) / (2.0 * eps)


class TestBuildExpression:
    def test_builders_real(self, grid):
        for spec in ({"kind": "gaussian", "amplitude": 0.5, "width": 1.5},
                     {"kind": "bump", "amplitude": 0.5, "width": 3.0},
                     {"kind": "mode", "amplitude": 0.5, "frequency": 3}):
            v = build_expression(grid, spec).values
            assert np.max(np.abs(v)) == pytest.approx(0.5, rel=1e-6)

    def test_bump_compact_support(self, grid):
        v = build_expression(grid, {"kind": "bump", "amplitude": 1.0,
                                    "width": 2.0}).values
        assert np.all(v[np.abs(grid.sigma) >= 2.0] == 0.0)

    def test_width_validated(self, grid):
        with pytest.raises(ConfigurationError):
            build_expression(grid, {"kind": "gaussian", "amplitude": 1.0, "width": 0.0})


class TestShapeDerivative:
    def test_matches_central_fd(self, profile, phi, hdir, grid):
        # [DERIVED] the formula against a centered difference of the solver,
        # same discretization on both sides
        sgrid = StripGrid(sigma=grid, n_y=128)
        dg = shape_derivative(profile, phi, hdir, sgrid).values
        scale = l2_norm(GridFn(grid, dg))
        fd = _fd_direction(profile, phi, hdir.values, sgrid, 1e-3)
        rel = l2_norm(GridFn(grid, fd - dg)) / scale
        assert rel < 5e-4

    @pytest.mark.parametrize("L, n", [(9.0, 128), (8.0, 256)])
    def test_direction_grid_mismatch_rejected(self, profile, phi, grid, L, n):
        # a direction on another window of the same size, or on twice the nodes
        other = SigmaGrid(L=L, n_sigma=n)
        h = GridFn(other, np.exp(-((other.sigma / 2.0) ** 2)))
        sgrid = StripGrid(sigma=grid, n_y=16)
        with pytest.raises(DomainError, match="different grids"):
            shape_derivative(profile, phi, h, sgrid)
        with pytest.raises(DomainError, match="different grids"):
            shape_central_difference(profile, phi, h, sgrid, 1e-3)

    def test_fd_gap_refines_second_order(self, profile, phi, hdir, grid):
        # the formula-vs-FD gap is pure discretization error; halving the
        # cell size divides it by four
        errs = []
        for n_y in (32, 64, 128):
            sgrid = StripGrid(sigma=grid, n_y=n_y)
            dg = shape_derivative(profile, phi, hdir, sgrid).values
            fd = _fd_direction(profile, phi, hdir.values, sgrid, 1e-3)
            errs.append(l2_norm(GridFn(grid, fd - dg)) / l2_norm(GridFn(grid, dg)))
        slopes = [math.log(errs[i] / errs[i + 1]) / math.log(2) for i in range(2)]
        for s in slopes:
            assert 1.7 < s < 2.3

    def test_translation_direction_is_commutator(self, profile, phi, grid):
        # h = d_sigma(eta) generates translations: the derivative collapses to
        # d_sigma G phi - G d_sigma phi, exactly on the discrete grid
        sgrid = StripGrid(sigma=grid, n_y=64)
        h = GridFn(grid, profile.eta_sigma)
        lhs = shape_derivative(profile, phi, h, sgrid).values
        res = dn_general(profile, phi, sgrid)
        gdphi = dn_general(profile, GridFn(grid, dsigma_values(grid, phi.values)),
                           sgrid).g_of_phi.values
        rhs = dsigma_values(grid, res.g_of_phi.values) - gdphi
        scale = l2_norm(res.g_of_phi)
        assert l2_norm(GridFn(grid, lhs - rhs)) / scale < 1e-12

    def test_zero_direction_offset_vanishes(self, profile, phi, grid):
        # the h-independent part of the formula is a discrete zero mode
        sgrid = StripGrid(sigma=grid, n_y=64)
        z = shape_derivative(profile, phi, GridFn.zeros(grid), sgrid).values
        scale = l2_norm(dn_general(profile, phi, sgrid).g_of_phi)
        assert l2_norm(GridFn(grid, z)) / scale < 1e-4

    def test_weighted_rearrangement(self, profile, phi, hdir, grid):
        # sin-weighted form absorbs the cotangent: sin(eta) dG.h + h cos(eta) G phi
        # = -sin(eta) G(h B + V) - d_sigma{(h V - B) sin(eta)}
        #   + sin(eta)(h - eta_s) phi / 4
        sgrid = StripGrid(sigma=grid, n_y=64)
        res = dn_general(profile, phi, sgrid)
        b = res.b_normal.values
        vt = res.v_tangential.values
        hv = hdir.values
        eta, eta_s = profile.eta, profile.eta_sigma
        dg = shape_derivative(profile, phi, hdir, sgrid).values
        lhs = np.sin(eta) * dg + hv * np.cos(eta) * res.g_of_phi.values
        g2 = dn_general(profile, GridFn(grid, hv * b + vt), sgrid).g_of_phi.values
        rhs = (-np.sin(eta) * g2
               - dsigma_values(grid, (hv * vt - b) * np.sin(eta))
               + np.sin(eta) * (hv - eta_s) * phi.values / 4.0)
        rel = l2_norm(GridFn(grid, lhs - rhs)) / l2_norm(GridFn(grid, lhs))
        assert rel < 1e-8

    def test_flat_profile_matches_degree_one(self, grid, angle, hdir, phi, coeff_table):
        # on the exact cone the derivative is the degree-1 expansion operator
        # in the direction shape (independent construction: series + recursion)
        flat = ConeProfile.flat(grid, angle)
        sgrid = StripGrid(sigma=grid, n_y=128)
        dg = shape_derivative(flat, phi, hdir, sgrid).values
        g1 = stokes_g_ell(coeff_table, GridFn(grid, hdir.values), 1,
                          phi).values
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
    profile = ConeProfile(angle, GridFn(grid, 0.08 * eta.values
                                        / max(1.0, np.max(np.abs(eta.values)))))
    phi = _band_limited(grid, 8, 3.0, seed + 1)
    h1 = _band_limited(grid, 5, 2.0, seed + 2).values
    h2 = _band_limited(grid, 5, 2.0, seed + 3).values
    sgrid = StripGrid(sigma=grid, n_y=24)

    def d(hval):
        return shape_derivative(profile, phi, GridFn(grid, hval), sgrid).values

    combo = d(h1 + h2) - d(h1) - d(h2) + d(np.zeros(grid.n_sigma))
    scale = max(l2_norm(GridFn(grid, d(h1))), 1e-12)
    assert l2_norm(GridFn(grid, combo)) / scale < 1e-9


class TestCancellation:
    def test_zero_data(self, profile, grid):
        sgrid = StripGrid(sigma=grid, n_y=32)
        q, _ = cancellation_quantity(profile, GridFn.zeros(grid), sgrid)
        assert np.max(np.abs(q.values)) == 0.0

    def test_gain_on_perturbed_profile(self, angle):
        # [PAPER] the combination loses one full order of the individual terms
        grid = SigmaGrid(L=8.0, n_sigma=256)
        eta = GridFn(grid, 0.1 * np.exp(-((grid.sigma / 1.5) ** 2)))
        prof = ConeProfile(theta_star=angle, eta_tilde=eta)
        n = grid.n_sigma
        c = np.zeros(n, dtype=complex)
        k = np.arange(1, n // 2)
        zk = math.pi * k / grid.L
        c[1:n // 2] = (1 + zk**2) ** (-2.0) * np.exp(1j * (0.7 * k + 0.31 * k * k))
        c[-1:-n // 2:-1] = np.conj(c[1:n // 2])
        phi = to_gridfn(grid, c)
        q, rep = cancellation_quantity(prof, phi, StripGrid(sigma=grid, n_y=128))
        assert rep.passed
        assert rep.gain >= 0.8
        assert -3.4 < rep.slopes["q"] < -2.6
        for key in ("g_of_b", "g_of_v", "dsigma_b", "dsigma_v"):
            assert -2.35 < rep.slopes[key] < -1.65

    def test_flat_symbol_plateau(self, angle):
        # |g^2 - zeta^2|/<zeta> stays bounded out to zeta = 200: the naive
        # size of either term alone is <zeta>^2
        grid = SigmaGrid(L=8.0, n_sigma=1024)
        table = build_symbol_table(grid, angle)
        vals = np.abs(table.g**2 - grid.zeta**2) / np.sqrt(1.0 + grid.zeta**2)
        assert np.all(np.isfinite(vals))
        assert np.max(vals) < 2.0
        z = np.abs(grid.zeta)
        band = vals[z >= 100.0]
        assert (band.max() - band.min()) / band.max() < 0.05


def _lstsq_tail_slope(f):
    """The tail slope's reference: numpy's least-squares solve of
    log a_k = slope log zeta_k + c over _tail_slope's band."""
    n = f.grid.n_sigma
    z = f.grid.rfft_zeta[1:n // 2]
    mags = mode_amplitudes(GridFn(f.grid, binary_scaled(f.values)[0]))[1:n // 2]
    z_hi = 0.9 * z[-1]
    band = (z >= z_hi / 2.0) & (z <= z_hi)
    logz = np.log(z[band])
    design = np.vstack([logz, np.ones_like(logz)]).T
    return float(np.linalg.lstsq(design, np.log(mags[band]), rcond=None)[0][0])


class TestTailSlope:
    def test_exact_power_law(self):
        # a_k proportional to zeta_k^-3 on the top three quarters of the
        # modes, which hold the band (lower modes would set the transform's
        # rounding)
        grid = SigmaGrid(L=8.0, n_sigma=256)
        n = grid.n_sigma
        k = np.arange(n // 8, n // 2)
        c = np.zeros(n, dtype=complex)
        c[k] = (math.pi * k / grid.L) ** -3.0 * np.exp(1j * 0.37 * k)
        c[-k] = np.conj(c[k])
        assert abs(_tail_slope(to_gridfn(grid, c)) + 3.0) <= 1e-12

    def test_matches_lstsq_on_the_cancel_check_fields(self):
        # the five fields whose slopes cancel-check reports, on its default config
        cfg = load_config(None)
        profile, phi, sgrid = cfg.profile(), cfg.phi(), cfg.strip_grid()
        grid = profile.grid
        res = dn_general(profile, phi, sgrid)
        b, vt = res.b_normal.values, res.v_tangential.values
        fields = {
            "g_of_b": dn_general(profile, res.b_normal, sgrid).g_of_phi.values,
            "g_of_v": dn_general(profile, res.v_tangential, sgrid).g_of_phi.values,
            "dsigma_b": dsigma_values(grid, b),
            "dsigma_v": dsigma_values(grid, vt),
        }
        fields["q"] = fields["g_of_b"] + fields["g_of_v"] + fields["dsigma_v"] \
            - fields["dsigma_b"]
        _, report = cancellation_quantity(profile, phi, sgrid)
        for name, values in fields.items():
            f = GridFn(grid, values)
            reference = _lstsq_tail_slope(f)
            assert abs(_tail_slope(f) - reference) <= 1e-12 * abs(reference), name
            assert report.slopes[name] == _tail_slope(f), name

    def test_guarded_branches_return_zero(self):
        # at n_sigma 16 the band holds three modes; zero data has no amplitude
        small = SigmaGrid(L=8.0, n_sigma=16)
        assert _tail_slope(GridFn(small, np.cos(small.sigma))) == 0.0
        grid = SigmaGrid(L=8.0, n_sigma=128)
        assert _tail_slope(GridFn.zeros(grid)) == 0.0


def _quadrature_rows(m, theta, k):
    """k(m, theta) and its first k theta-derivatives, shape (k + 1, m.size):
    the quadrature at one angle and the ODE recursion seeded by its k1/k."""
    log_k, ratio = quad_log_k(m, np.array([theta]), want_deriv=True)
    base = np.exp(log_k[:, 0])
    ratios = dtheta_ratios_from_seed(m, theta, ratio[:, 0])[:k]
    return np.array([base] + [r * base for r in ratios])


class TestStokesCoefficients:
    def test_matches_kernel_and_derivatives(self, angle):
        m = np.arange(0.0, 9.0)
        tab = legendre_dtheta(angle.theta_star, m * m, 3)
        ref = _quadrature_rows(m, angle.theta_star, 2)
        assert np.max(np.abs(tab[:3] - ref) / np.abs(ref)) < 1e-10

    def test_large_frequency_agreement(self, angle):
        big = np.array([50.0, 200.0, 400.0])
        tab = legendre_dtheta(angle.theta_star, big * big, 3)
        ref = _quadrature_rows(big, angle.theta_star, 0)[0]
        assert np.max(np.abs(tab[0] - ref) / ref) < 1e-12

    def test_ratio_matches_symbol_table(self, grid, angle, coeff_table):
        tab = legendre_dtheta(angle.theta_star, grid.zeta**2, 3)
        ratio = tab[1] / tab[0]
        assert np.max(np.abs(ratio - coeff_table.g)) / np.max(coeff_table.g) < 1e-6

    def test_second_derivative_ode_consistency(self, grid, angle):
        # a2 = (1/4 + m^2) a0 - cot(theta*) a1 on every frequency
        th = angle.theta_star
        m = np.abs(grid.zeta)
        tab = legendre_dtheta(th, m * m, 3)
        cot = math.cos(th) / math.sin(th)
        ref = (0.25 + m**2) * tab[0] - cot * tab[1]
        assert np.max(np.abs(tab[2] - ref) / np.abs(ref)) < 1e-12

    def test_series_matches_quadrature_derivatives(self):
        # a_0..a_3 from the series sums S_0..S_3 against the quadrature
        # route: the kernel and its ODE-seeded angle derivatives
        m = np.array([0.0, 0.5, 3.0, 10.0, 25.0])
        for th in (0.3, 0.86, 1.5, 2.2):
            rows = legendre_dtheta(th, m * m, 3)
            ref = _quadrature_rows(m, th, 3)
            assert np.max(np.abs(rows - ref) / np.abs(ref)) < 1e-12

    def test_series_small_angle_limits(self):
        # near the apex, with c = 1/4 + m^2: a_0 = 1, a_1 = c theta/2,
        # a_2 = c/2 and a_3 = theta (3 c (c + 2)/8 - c/2), although
        # sin^2(theta/2)^3 underflows
        m = np.array([0.0, 2.0, 10.0])
        c = 0.25 + m**2
        th = 1e-60
        rows = legendre_dtheta(th, m * m, 3)
        ref = np.vstack([np.ones_like(c), c * th / 2.0, c / 2.0,
                         th * (3.0 * c * (c + 2.0) / 8.0 - c / 2.0)])
        assert np.max(np.abs(rows - ref) / ref) < 1e-13


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.15, max_value=2.2),
       st.floats(min_value=0.0, max_value=30.0))
def test_stokes_zeroth_matches_kernel_property(theta, m):
    # upper angle limit keeps sin^2(theta/2) away from 1, where the series
    # needs unboundedly many terms and the advisory error takes over
    tab = legendre_dtheta(theta, np.array([m * m]), 3)
    ref = _quadrature_rows(np.array([m]), theta, 0)[0, 0]
    assert abs(tab[0, 0] - ref) < 1e-11 * abs(ref)


def _check_degree_zero(grid, table, phi):
    g0 = stokes_g_ell(table, GridFn.zeros(grid), 0, phi)
    ref = dn_flat(phi, table)
    assert np.max(np.abs(g0.values - ref.values)) < 1e-12 * np.max(np.abs(ref.values))


def _check_degree_one(grid, angle, table):
    # oracle multipliers from the quadrature symbol table and the angular
    # equation; data band-limited so products stay alias-free
    th = angle.theta_star
    phi = _band_limited(grid, 20, 2.0, 5)
    eta = _band_limited(grid, 10, 2.0, 6)
    g, z2 = table.g, grid.zeta**2
    cot = math.cos(th) / math.sin(th)
    h2 = (0.25 + z2) - cot * g

    def mult(sym, f):
        return GridFn(grid, np.real(np.fft.ifft(np.fft.fft(f.values) * sym)))

    ev = eta.values
    es = dsigma_values(grid, ev)
    lam_phi = mult(g, phi)
    oracle = (-mult(g, GridFn(grid, ev * lam_phi.values)).values
              + ev * mult(h2, phi).values
              - es * dsigma_values(grid, phi.values))
    got = stokes_g_ell(table, eta, 1, phi).values
    assert np.max(np.abs(got - oracle)) < 1e-11 * np.max(np.abs(oracle))


def _check_degree_two(grid, angle, table):
    th = angle.theta_star
    phi = _band_limited(grid, 20, 2.0, 7)
    eta = _band_limited(grid, 10, 2.0, 8)
    g, z2 = table.g, grid.zeta**2
    cot = math.cos(th) / math.sin(th)
    csc2 = 1.0 / math.sin(th) ** 2
    h2 = (0.25 + z2) - cot * g
    h3 = (0.25 + z2 + csc2) * g - cot * h2

    def mult(sym, f):
        return GridFn(grid, np.real(np.fft.ifft(np.fft.fft(f.values) * sym)))

    ev = eta.values
    es = dsigma_values(grid, ev)
    lam = lambda f: mult(g, f)
    tm = lambda a, f: GridFn(grid, a * f.values)
    inner = GridFn(grid, tm(ev, lam(tm(ev, lam(phi)))).values
                   - tm(0.5 * ev**2, mult(h2, phi)).values)
    oracle = (lam(inner).values
              - ev * mult(h2, tm(ev, lam(phi))).values
              + 0.5 * ev**2 * mult(h3, phi).values
              + es**2 * lam(phi).values)
    got = stokes_g_ell(table, eta, 2, phi).values
    assert np.max(np.abs(got - oracle)) < 1e-10 * np.max(np.abs(oracle))


class TestGradedExpansion:
    def test_degree_zero_is_flat_multiplier(self, grid, phi, coeff_table):
        _check_degree_zero(grid, coeff_table, phi)

    def test_zero_shape_kills_higher_degrees(self, grid, phi, coeff_table):
        z = GridFn.zeros(grid)
        for ell in (1, 2):
            assert np.max(np.abs(stokes_g_ell(coeff_table, z, ell, phi).values)) == 0.0

    def test_multipliers_match_the_series_rows(self, grid, angle, coeff_table):
        # A_k = a_k/a_0 two ways: the symbol table through Legendre's
        # equation, and the rows of the hypergeometric series
        mults = expansion_multipliers(coeff_table)
        m = grid.rfft_zeta
        rows = legendre_dtheta(angle.theta_star, m * m, 3)
        assert np.array_equal(mults[0], np.ones(m.size))
        assert np.array_equal(mults[1], coeff_table.g[:m.size])
        for k in (1, 2, 3):
            assert np.max(np.abs(rows[k] / rows[0] - mults[k]) / np.abs(mults[k])) < 1e-13

    def test_degree_one_explicit_form(self, grid, angle, coeff_table):
        _check_degree_one(grid, angle, coeff_table)

    def test_degree_two_explicit_form(self, grid, angle, coeff_table):
        _check_degree_two(grid, angle, coeff_table)

    @pytest.mark.parametrize("theta", [None, 2.8], ids=["taylor", "2.8"])
    def test_oracles_beyond_the_series(self, theta):
        # n_sigma 4096 (largest zeta 804) is past where the hypergeometric
        # series converges; the multipliers come from the symbol table
        grid = SigmaGrid(L=8.0, n_sigma=4096)
        angle = taylor_angle() if theta is None else ConeAngle(theta)
        table = build_symbol_table(grid, angle)
        _check_degree_zero(grid, table, _modulated_gaussian(grid))
        _check_degree_one(grid, angle, table)
        _check_degree_two(grid, angle, table)

    def test_partial_sum_remainder_is_cubic(self, grid, angle, coeff_table):
        # [PAPER] dn_general - (G0 + G1 + G2)[eps shape] shrinks like eps^3;
        # the eps-independent discrete bias is measured at eps=0 and removed
        shape = _band_limited(grid, 6, 3.0, 11)
        sv = shape.values / np.max(np.abs(shape.values))
        phi = _band_limited(grid, 12, 3.0, 12)
        sgrid = StripGrid(sigma=grid, n_y=384)
        flat = ConeProfile.flat(grid, angle)
        delta0 = (dn_general(flat, phi, sgrid).g_of_phi.values
                  - stokes_g_ell(coeff_table, GridFn.zeros(grid), 0, phi).values)
        eps_list = (0.02, 0.01, 0.005)
        rems = []
        for eps in eps_list:
            prof = ConeProfile(angle, GridFn(grid, eps * sv))
            full = dn_general(prof, phi, sgrid).g_of_phi.values
            approx = sum(stokes_g_ell(coeff_table, GridFn(grid, eps * sv), l,
                                      phi).values for l in range(3))
            rems.append(l2_norm(GridFn(grid, full - approx - delta0)))
        slope = np.polyfit(np.log(eps_list), np.log(rems), 1)[0]
        assert 2.5 < slope < 3.5

    def test_degree_validated(self, grid, phi, coeff_table):
        with pytest.raises(DomainError):
            stokes_g_ell(coeff_table, GridFn.zeros(grid), 3, phi)

    def test_frequency_mismatch_rejected(self, grid, angle, phi, coeff_table):
        # a table on another grid (other frequencies), or data on one
        other = SigmaGrid(L=9.0, n_sigma=grid.n_sigma)
        with pytest.raises(DomainError):
            stokes_g_ell(build_symbol_table(other, angle), GridFn.zeros(grid), 1, phi)
        with pytest.raises(DomainError):
            stokes_g_ell(coeff_table, GridFn.zeros(other), 1, phi)
        with pytest.raises(DomainError):
            stokes_g_ell(coeff_table, GridFn.zeros(grid), 1, GridFn.zeros(other))
