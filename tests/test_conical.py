from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import conedn.conical as conical_module
from conedn.conical import (
    ConeAngle,
    bessel_form_ratio,
    bessel_i0_derivative_scaled,
    dtheta_ratios_from_seed,
    legendre_dtheta,
    legendre_half,
    panel_rule,
    quad_log_k,
    sinc,
    taylor_angle,
)
from conedn.config import load_config
from conedn.errors import DomainError, EvaluationError
from conedn.flat import build_symbol_table, extend_flat, verify_kernel_bounds
from conedn.grid import MAX_ZETA_THETA, GridFn, SigmaGrid


# ---------------------------------------------------------------------------
# oracles (independent of the library)
# ---------------------------------------------------------------------------

def _elliptic_k_agm(k: float) -> float:
    """Complete elliptic integral K(k) by the arithmetic-geometric mean."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    while abs(a - b) > 1e-16 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _fd_richardson(f, x: float, h: float) -> float:
    """Fourth-order centered difference (Richardson-extrapolated)."""
    return (8.0 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))) / (12.0 * h)


def _bessel_integral_scaled(m: int, x: float, n: int = 4001) -> float:
    """e^{-x} I_m(x) by Simpson quadrature of the integral representation."""
    phi = np.linspace(0.0, math.pi, n)
    vals = np.exp(x * (np.cos(phi) - 1.0)) * np.cos(m * phi)
    from scipy.integrate import simpson
    return float(simpson(vals, x=phi) / math.pi)


def _k(zeta: float, theta: float, m: int = 0) -> float:
    """k(zeta, theta), or its m-th theta-derivative, from the library's array
    routes at one angle: the quadrature gives log k and k1/k, the ODE
    recursion the higher ratios."""
    log_k, ratio = quad_log_k(zeta, np.array([theta]), want_deriv=True)
    k = math.exp(float(log_k[0]))
    if m == 0:
        return k
    return float(dtheta_ratios_from_seed(zeta, theta, ratio[0])[m - 1]) * k


def _ive(m: int, x: float) -> float:
    """e^{-x} I_m(x) from the library's one route."""
    return float(conical_module.ive(m, x))


def _series_power(m: int, theta: float) -> float:
    """Hypergeometric series for k(m, theta) with the reconciled coefficient
    Q(n, m) = prod_{j=0}^{n-1}((j+1/2)^2 + m^2), denominators (n!)^2."""
    z = math.sin(theta / 2.0) ** 2
    tot, term = 1.0, 1.0
    for n in range(400):
        term *= ((n + 0.5) ** 2 + m * m) * z / ((n + 1) ** 2)
        tot += term
        if abs(term) < 1e-16 * abs(tot):
            break
    return tot


# ---------------------------------------------------------------------------
# params / types
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(DomainError):
        ConeAngle(theta_star=3.5)
    with pytest.raises(DomainError):
        ConeAngle(theta_star=0.0)


def test_theta_domain_errors():
    for fn in (lambda th: bessel_form_ratio(1.0, th), legendre_half):
        for theta in (0.0, math.pi):
            with pytest.raises(DomainError, match=r"\(0, pi\)"):
                fn(theta)


# ---------------------------------------------------------------------------
# the kernel k: quad_log_k at one angle
# ---------------------------------------------------------------------------

def test_axis_limit_is_one():
    for z in (0.0, 1.0, 10.0, 100.0):
        assert _k(z, 1e-12) == pytest.approx(1.0, abs=1e-10)


def test_agm_identity_at_zero_frequency():
    theta = math.pi / 3
    expected = (2.0 / math.pi) * _elliptic_k_agm(math.sin(theta / 2.0))
    assert _k(0.0, theta) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("z,theta", [
    (0.0, 1.0), (0.5, 0.3), (2.0, 0.6), (5.0, 2.5), (10.0, 0.86), (30.0, 1.2),
])
def test_against_mpmath(z, theta):
    mp.mp.dps = 25
    ref = float(mp.legenp(mp.mpc(-0.5, z), 0, mp.cos(theta)).real)
    assert _k(z, theta) == pytest.approx(ref, rel=1e-12)


def test_log_k_and_ratio_against_mpmath():
    # over the exact-cone range, where nearly every frequency stops at the
    # refinement schedule's first level, and near pi: k to 1e-13 relative
    # (log k to 1e-13 absolute) and k1/k to 1e-13 relative, k1 by mpmath's
    # derivative
    mp.mp.dps = 30
    for z, theta in [(0.0, 2.0), (3.0, 0.5), (12.0, 2.9), (25.0, 1.2),
                     (60.0, 1.5), (100.0, 2.0), (80.0, 2.6), (150.0, 0.9),
                     (0.0, 3.14), (5.0, 3.14), (0.0, 3.1), (50.0, 3.0)]:
        def k(t, z=z):
            return mp.legenp(mp.mpc(-0.5, z), 0, mp.cos(t)).real
        ref = k(mp.mpf(theta))
        log_k, ratio = quad_log_k(z, np.array([theta]), want_deriv=True)
        assert abs(float(log_k[0]) - float(mp.log(ref))) <= 1e-13, (z, theta)
        assert float(ratio[0]) == pytest.approx(float(mp.diff(k, mp.mpf(theta)) / ref),
                                                rel=1e-13), (z, theta)


@pytest.mark.parametrize("z, theta", [(1273.2, 0.05 * math.pi), (666.7, 0.3), (232.5, None)],
                         ids=["0.05 pi", "0.3", "Taylor angle"])
def test_log_k_against_mpmath_at_lattice_top(z, theta):
    # near X_MAX / theta*, the top of verify_kernel_bounds' default zeta
    # lattice, far above the grid frequencies: log k to 1e-14 relative, and
    # k1/k finite within its bounds 0 <= k1/k <= zeta + tan(theta/2)/2
    theta = taylor_angle().theta_star if theta is None else theta
    with mp.workdps(30):
        ref = mp.log(mp.legenp(mp.mpc(-0.5, z), 0, mp.cos(mp.mpf(theta)), type=2).real)
    log_k, ratio = quad_log_k(z, np.array([theta]), want_deriv=True)
    assert float(log_k[0]) == pytest.approx(float(ref), rel=1e-14)
    assert np.isfinite(ratio[0]) and 0.0 < ratio[0] <= z + math.tan(theta / 2.0) / 2.0


def test_evenness_exact():
    for z, th in [(3.2, 0.7), (17.5, 1.9)]:
        assert _k(-z, th) == _k(z, th)
        assert _k(-z, th, 1) == _k(z, th, 1)


def test_positive_lower_bound_on_lattice():
    # k(z, theta) >= theta/(pi sqrt(2)) on (0, theta*]
    th_star = taylor_angle().theta_star
    for z in (0.0, 0.7, 2.0, 8.0, 25.0):
        for th in np.linspace(0.02, th_star, 9):
            assert _k(z, float(th)) >= th / (math.pi * math.sqrt(2.0))


def test_large_frequency_matches_scaled_bessel():
    # quadrature value against I0(z*theta)/sqrt(sinc theta), 2% tolerance
    th = taylor_angle().theta_star
    assert bessel_form_ratio(100.0, th) == pytest.approx(1.0, abs=2e-2)


def test_overflow_policy():
    # k is carried in log scale: finite far beyond double range
    z, th = 500.0, 2.0  # z*theta = 1000
    log_k, _ = quad_log_k(z, np.array([th]))
    assert np.isfinite(log_k[0]) and log_k[0] > 900


def test_series_reconciliation():
    # the reconciled power series agrees with quadrature at integer frequency;
    # the variant with a squared product diverges and is not comparable
    for m in (0, 1, 3, 8):
        assert _series_power(m, 0.86) == pytest.approx(_k(m, 0.86), rel=1e-12)


# ---------------------------------------------------------------------------
# theta-derivatives of k: the quadrature's k1/k and the ODE recursion
# ---------------------------------------------------------------------------

def test_first_derivative_axis_limit():
    for z in (0.0, 2.0, 11.0):
        assert abs(_k(z, 1e-8, 1)) < 1e-6


def test_first_derivative_fd_oracle():
    f = lambda t: _k(0.0, t)
    fd = _fd_richardson(f, math.pi / 2, 1e-4)
    assert _k(0.0, math.pi / 2, 1) == pytest.approx(fd, rel=1e-6)


def test_first_derivative_fd_lattice():
    for z in (0.0, 1.0, 5.0, 20.0):
        for th in (0.3, 0.86, 1.7, 2.6):
            f = lambda t: _k(z, t)
            fd = _fd_richardson(f, th, 1e-4)
            assert _k(z, th, 1) == pytest.approx(fd, rel=1e-6)


def test_first_derivative_positive():
    for z in (0.0, 3.0, 40.0):
        for th in (0.2, 0.86, 2.0):
            assert _k(z, th, 1) > 0.0


def test_integrand_bounds_on_k_and_its_ratio():
    # 0 <= phi <= theta and 0 <= dphi/dtheta <= 1 in the integral of k, so
    # k <= e^{zeta theta} / cos(theta/2) and 0 <= k1/k <= zeta + tan(theta/2)/2
    zetas = np.array([0.0, 0.3, 5.0, 40.0, 250.0, 500.0])
    thetas = np.linspace(0.01, 0.95 * math.pi, 240)
    log_k, ratio = quad_log_k(zetas, thetas, want_deriv=True)
    z, th = zetas[:, None], thetas[None, :]
    assert np.all(log_k <= z * th - np.log(np.cos(th / 2.0)))
    assert np.all(ratio >= 0.0)
    assert np.all(ratio <= z + np.tan(th / 2.0) / 2.0)


def test_asymptotic_equivalence_bounds():
    # ratio against (1+4z^2)/z * I1(z th)/sqrt(sinc th): two-sided with a
    # finite constant (the comparison function carries a deliberate factor-4
    # headroom, so the ratio sits near 1/4; 8 is a safe two-sided constant)
    th = taylor_angle().theta_star
    z = 50.0
    k1 = _k(z, th, 1)
    comp = (1 + 4 * z * z) / z * math.exp(z * th) * _ive(1, z * th) / math.sqrt(float(sinc(th)))
    ratio = k1 / comp
    assert 1.0 / 8.0 <= ratio <= 8.0
    # sharp form of the same asymptotics
    sharp = k1 * math.sqrt(float(sinc(th))) / (z * math.exp(z * th) * _ive(1, z * th))
    assert sharp == pytest.approx(1.0, abs=5e-2)


@pytest.mark.parametrize("m", [2, 3])
def test_higher_derivatives_nested_fd(m):
    # nested Richardson differences of the (m-1)-th derivative
    z, th = 2.0, 0.9
    h = 1e-3
    prev = lambda t: _k(z, t, m - 1)
    fd = _fd_richardson(prev, th, h)
    assert _k(z, th, m) == pytest.approx(fd, rel=1e-7)


# ---------------------------------------------------------------------------
# scaled Bessel functions: ive and bessel_i0_derivative_scaled
# ---------------------------------------------------------------------------

def test_bessel_trivial_values():
    assert _ive(0, 0.0) == 1.0
    assert _ive(1, 0.0) == 0.0


def test_bessel_quadrature_oracle():
    for m in range(5):
        for x in (0.5, 3.0, 40.0):
            ref = _bessel_integral_scaled(m, x)
            assert _ive(m, x) == pytest.approx(ref, abs=1e-12)


def test_bessel_large_argument_form():
    x = 40.0
    assert _ive(0, x) * math.sqrt(2 * math.pi * x) == pytest.approx(1.0, abs=1e-2)


def test_bessel_lower_bound():
    # I0(x) >= e^{x/2}/3, i.e. e^{-x} I0(x) >= e^{-x/2}/3
    for x in np.linspace(0.0, 50.0, 101):
        assert _ive(0, float(x)) >= math.exp(-x / 2.0) / 3.0 - 1e-15


def test_bessel_monotonicity_and_order_bound():
    xs = np.linspace(0.0, 30.0, 61)
    vals = [math.exp(x) * _ive(0, float(x)) for x in xs[:40]]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    for m in range(1, 5):
        for x in (0.3, 4.0, 22.0):
            assert _ive(m, x) <= _ive(0, x) + 1e-15


def test_i0_derivative_bound():
    # |I0^{(k)}(y x)| <= I0(x) for y in [0,1], k <= 4
    for x in (1.0, 10.0, 50.0):
        for k in range(5):
            for y in np.linspace(0.0, 1.0, 21):
                lhs = bessel_i0_derivative_scaled(k, float(y * x)) * math.exp(y * x - x)
                assert lhs <= _ive(0, x) * (1 + 1e-12)


def test_i0_derivative_accepts_arrays():
    xs = np.array([0.0, 0.7, 12.0, 50.0])
    for k in range(5):
        vals = bessel_i0_derivative_scaled(k, xs)
        assert vals.shape == xs.shape
        assert np.array_equal(vals, [bessel_i0_derivative_scaled(k, float(x)) for x in xs])
    with pytest.raises(DomainError):
        bessel_i0_derivative_scaled(2, np.array([1.0, -0.5]))


def test_bessel_matches_scipy_oracle():
    # scipy's ive is itself off by up to 1.4e-14 against mpmath on these
    # points, which sets the bound
    from scipy.special import ive as scipy_ive
    xs = np.concatenate([[0.0], np.geomspace(1e-8, 3000.0, 400)])
    for m in range(5):
        ref = scipy_ive(m, xs)
        ours = conical_module.ive(m, xs)
        nonzero = ref != 0.0
        assert np.array_equal(ours[~nonzero], ref[~nonzero])
        rel = np.abs(ours[nonzero] - ref[nonzero]) / ref[nonzero]
        assert np.max(rel) <= 5e-14, (m, float(np.max(rel)))


def test_bessel_array_call_matches_scalar_calls():
    # straddle the series/quadrature switch and each node-count bracket
    # edge x = b^2 above it
    edges = [conical_module.BESSEL_SERIES_MAX] + [float(b * b) for b in range(4, 12)]
    xs = np.array([v for e in edges
                   for v in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))])
    for k in range(5):
        vals = bessel_i0_derivative_scaled(k, xs)
        assert np.array_equal(vals, [bessel_i0_derivative_scaled(k, float(x)) for x in xs])
        assert np.array_equal(vals.reshape(3, -1),
                              bessel_i0_derivative_scaled(k, xs.reshape(3, -1)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bessel_rejects_nonfinite_argument(bad):
    # I0's argument in the large-frequency form is |zeta| theta
    with pytest.raises(DomainError, match="finite and nonnegative"):
        bessel_form_ratio(bad, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_i0_derivative_rejects_nonfinite_argument(bad):
    with pytest.raises(DomainError):
        bessel_i0_derivative_scaled(2, bad)
    with pytest.raises(DomainError):
        bessel_i0_derivative_scaled(2, np.array([1.0, bad, 3.0]))


def test_i0_derivative_combos_fd():
    # check the I0 derivative combinations against finite differences
    x0 = 2.3
    for k in (1, 2, 3, 4):
        g = lambda x, k=k: math.exp(x) * bessel_i0_derivative_scaled(k - 1, x)
        fd = _fd_richardson(g, x0, 1e-4)
        ours = math.exp(x0) * bessel_i0_derivative_scaled(k, x0)
        assert ours == pytest.approx(fd, rel=1e-8)


# ---------------------------------------------------------------------------
# panel_rule, in each of its three uses
# ---------------------------------------------------------------------------

# (length, width, points per panel), expected panel count
_KERNEL_RULES = [  # [0, pi/2], width 1/sqrt(1 + zeta*theta)
    ((math.pi / 2, 1.0, 16), 2),
    ((math.pi / 2, 1.0 / math.sqrt(51.0), 96), 5),
    ((math.pi / 2, 1.0 / math.sqrt(1501.0), 32), 7),
    ((math.pi / 2, 1e-15, 16), 40),
]
# (0, theta*/2] of the rule of S_0..S_3, one panel
_THETA_RULES = [((th / 2, th / 2, 12), 1) for th in (0.2, 0.86, 3.0)]
_Y_RULES = [  # [0, 1] before mirroring, width 1/(1 + x)
    ((1.0, 1.0, 16), 1),
    ((1.0, 1.0 / 1.3, 16), 2),
    ((1.0, 1.0 / 51.0, 16), 7),
    ((1.0, 1e-12, 16), 40),
]


@pytest.mark.parametrize("args, panels", _KERNEL_RULES + _THETA_RULES + _Y_RULES)
def test_panel_rule(args, panels):
    length, _, n_per = args
    t, w = panel_rule(*args)
    assert abs(float(np.sum(w)) - length) <= 1e-14 * length
    assert np.all(t > 0.0) and np.all(t < length)
    assert np.all(np.diff(t) > 0.0)
    assert t.size == n_per * panels
    assert not t.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("args", [args for args, _ in _Y_RULES])
def test_mirrored_y_rule(args):
    # the Bessel integrals use the rule mirrored onto [0, 1], dense at y = 1
    t, w = panel_rule(*args)
    y, wy = 1.0 - t[::-1], w[::-1]
    assert np.all(y > 0.0) and np.all(y < 1.0)
    assert abs(float(np.sum(wy)) - 1.0) <= 1e-14
    assert float(np.sum(wy * y**3)) == pytest.approx(0.25, rel=1e-14)


def test_panel_rules_shared_across_widths():
    # the layout depends only on the number of halvings, so the thousands of
    # widths of one exact-cone run need a few dozen rules
    conical_module._composite_rule.cache_clear()
    grid = SigmaGrid(L=8.0, n_sigma=1024)
    table = build_symbol_table(grid, ConeAngle(0.9))
    phi = GridFn(grid, np.exp(-(grid.sigma / 1.8) ** 2))
    extend_flat(phi, np.linspace(0.0, 0.9, 33)[1:], table)
    verify_kernel_bounds(table, zeta_max=100.0)
    assert conical_module._composite_rule.cache_info().misses < 100


# ---------------------------------------------------------------------------
# quad_log_k over an array of frequencies
# ---------------------------------------------------------------------------

# 4 rules at theta up to 1.3 and 3 at 2.5, unsorted, with 0, a sign pair
# and two frequencies 1e-6 apart
_BATCH_ZETAS = np.array([7.5, 0.0, 0.3, -0.3, 1.0, 40.0, 40.000001, 250.0])


@pytest.mark.parametrize("thetas", [np.array([1.3]), panel_rule(2.5, 2.5 / 2**13, 16)[0]],
                         ids=["1 theta", "224 thetas"])
@pytest.mark.parametrize("want_deriv", [False, True])
def test_batched_rows_equal_scalar_calls(thetas, want_deriv):
    th_max = float(np.max(thetas))
    assert len(conical_module._panel_groups(np.abs(_BATCH_ZETAS), th_max)) >= 3
    log_k, ratio = quad_log_k(_BATCH_ZETAS, thetas, want_deriv)
    assert log_k.shape == (_BATCH_ZETAS.size, thetas.size)
    assert (ratio is None) is not want_deriv
    for i, z in enumerate(_BATCH_ZETAS.tolist()):
        lk, r = quad_log_k(z, thetas, want_deriv)
        assert lk.shape == thetas.shape
        assert np.array_equal(log_k[i], lk)
        if want_deriv:
            assert r.shape == thetas.shape
            assert np.array_equal(ratio[i], r)


def _halving_loop(length, width):
    """panel_rule's edges on [0, length] at ``width``, by a plain loop."""
    edges = [length]
    while edges[-1] > width and len(edges) < 40:
        edges.append(edges[-1] / 2)
    return tuple(edges)


def _group_width(az, th_max):
    """The width that groups a frequency alone: its e-folding width, at
    most cos(th_max/2)."""
    t1 = float(conical_module._efold_width(np.array([az]), th_max)[0])
    return min(t1, math.cos(th_max / 2.0))


def _plain_quad_log_k(zeta, thetas, want_deriv):
    """quad_log_k for one frequency with the rule and the integrands as plain
    expressions, rebuilt on every refinement: s-panels of at most 2 on
    [0, asinh((pi/2)/w)], w 1.5 times the narrowest halving at the
    frequency's width, and each level stops where the square of its
    Legendre tail meets QUAD_TOL."""
    az = abs(zeta)
    th_max = float(np.max(thetas))
    w_map = min(1.5 * _halving_loop(math.pi / 2, _group_width(az, th_max))[-1],
                math.cos(th_max / 2.0))
    s_max = math.asinh((math.pi / 2) / w_map)
    m = math.ceil(s_max / 2.0)
    h = 0.5 * s_max / m
    for n_per in conical_module._QUAD_LEVELS:
        x, wx = conical_module._gl_rule(n_per)
        s = np.concatenate([h * (2 * p + 1 + x) for p in range(m)])
        t, jac, w = w_map * np.sinh(s), w_map * np.cosh(s), np.concatenate([h * wx] * m)
        th, ct, st = thetas[:, None], np.cos(t)[None, :], np.sin(t)[None, :]
        s_half = np.sin(th / 2.0) * ct
        # cos(phi/2) and phi - theta in their cancellation-free forms
        cos_half = np.sqrt(np.cos(th / 2.0) ** 2 + np.sin(th / 2.0) ** 2 * st ** 2)
        phi_minus = 2.0 * np.arcsin(-np.sin(th / 2.0) * st ** 2
                                    / (np.cos(th / 2.0) * ct + cos_half))
        ep = np.exp(az * phi_minus)
        em = np.exp(-az * (phi_minus + 2.0 * th))
        # the integrands in s, times dt/ds = jac
        f_k = 0.5 * (ep + em) * (jac / cos_half)
        val_k = (2.0 / math.pi) * (f_k @ w)
        dphi = np.cos(th / 2.0) * ct / cos_half
        f_d = ((az * (0.5 * (ep - em)) + 0.5 * (0.5 * (ep + em)) * (s_half / cos_half))
               * (dphi * (jac / cos_half)))
        val_d = (2.0 / math.pi) * (f_d @ w)
        # Legendre P_0..P_{n-1} at the rule's nodes by the three-term
        # recurrence; every s-panel has half-width h
        p = [np.ones_like(x), x]
        for j in range(1, n_per - 1):
            p.append(((2 * j + 1) * x * p[j] - j * p[j - 1]) / (j + 1))

        def tail(f):
            panels = f.reshape(f.shape[0], -1, n_per)
            c = [(2 * j + 1) / 2 * np.sum(wx * p[j] * panels, axis=-1)
                 for j in (n_per - 2, n_per - 1)]
            return (2.0 / math.pi) * h * np.sum(np.abs(c[0]) + np.abs(c[1]), axis=-1)

        res = float(np.max(tail(f_k) / np.abs(val_k)))
        if want_deriv:
            scale = np.maximum(np.abs(val_d), np.abs(val_k))
            res = max(res, float(np.max(tail(f_d) / scale)))
        if res * res <= conical_module.QUAD_TOL:
            return az * thetas + np.log(val_k), (val_d / val_k if want_deriv else None)
    raise AssertionError("plain quadrature did not converge")


def _spy_levels(monkeypatch) -> tuple[list[int], list[int]]:
    """Patch _Geometry.integrals to record, per call, the points per panel of
    the level it integrates, once for each frequency of the call, and the
    integrand elements of the call."""
    integrals = conical_module._Geometry.integrals
    points: list[int] = []
    elements: list[int] = []

    def spy(geom, az):
        points.extend([geom.tail[0].shape[0]] * az.size)
        elements.append(az.size * geom.d_minus.size)
        return integrals(geom, az)

    monkeypatch.setattr(conical_module._Geometry, "integrals", spy)
    return points, elements


@pytest.mark.parametrize("want_deriv", [False, True])
def test_shared_geometry_keeps_every_bit(monkeypatch, want_deriv):
    # the in-place steps on the shared geometry give the plain expressions'
    # values exactly, over small and large zeta * theta, and at every level
    # of the schedule: only frequencies near the reach go on past 24 points,
    # at 32 stations to 32 (1.8e20) and 64 (7.6e20) up to 3.14, and to 96
    # (7.6e20) up to 3.1415
    points, _ = _spy_levels(monkeypatch)
    cases = [(_BATCH_ZETAS, np.array([0.9])),
             (_BATCH_ZETAS, panel_rule(2.9, 2.9 / 2**13, 16)[0]),
             (np.array([1.8e20, 7.6e20]), 3.14 * np.arange(1, 33) / 32),
             (np.array([7.6e20]), 3.1415 * np.arange(1, 33) / 32)]
    for zetas, thetas in cases:
        log_k, ratio = quad_log_k(zetas, thetas, want_deriv)
        for i, z in enumerate(zetas.tolist()):
            lk, r = _plain_quad_log_k(z, thetas, want_deriv)
            assert np.array_equal(log_k[i], lk)
            if want_deriv:
                assert np.array_equal(ratio[i], r)
    assert set(points) == set(conical_module._QUAD_LEVELS)


@pytest.mark.parametrize("theta_star, elements", [(None, 288_168), (0.8 * math.pi, 480_480)],
                         ids=["Taylor angle", "0.8 pi"])
def test_exact_cone_work_is_all_24_point(monkeypatch, theta_star, elements):
    # every integrand element of an exact-cone operation (symbol table,
    # 32-station extension, bounds check) comes from the 24-point rule: each
    # frequency is accepted by the squared tail of its first level, and the
    # operation takes at most the elements of the sinh-mapped panels
    angle = taylor_angle() if theta_star is None else ConeAngle(theta_star)
    grid = SigmaGrid(L=8.0, n_sigma=128)
    phi = GridFn(grid, np.exp(-grid.sigma ** 2))
    points, counted = _spy_levels(monkeypatch)
    table = build_symbol_table(grid, angle)
    extend_flat(phi, angle.theta_star * np.arange(1, 33) / 32, table)
    verify_kernel_bounds(table, zeta_max=100.0)
    assert points and set(points) == {24}
    assert sum(counted) <= elements


#: the largest angles of the soundness lattice, from near 0 to the
#: quadrature's reach near pi
_LATTICE_ANGLES = (0.01, 0.3, 1.0, 1.9, 2.5, 2.8, 3.0, 3.1, 3.14, 3.1415)


def _reference_rule(monkeypatch, zetas, thetas, want_deriv):
    """quad_log_k at 192 points per panel on the schedule's panels, the one
    level accepted as it stands."""
    with monkeypatch.context() as patch:
        patch.setattr(conical_module, "_QUAD_LEVELS", (192,))
        patch.setattr(conical_module, "QUAD_TOL", math.inf)
        return quad_log_k(zetas, thetas, want_deriv)


def _assert_within_1e14(got, ref):
    assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-14


#: frequencies that the halving panels refused at 32 stations up to
#: 3.1415, with or without the derivative
_ONCE_REFUSED_NEAR_PI = (5.42e8, 1.72e9, 5.48e9, 3.11e10, 9.89e10, 5.61e11)


@pytest.mark.parametrize("want_deriv", [False, True])
def test_every_level_estimate_is_sound(monkeypatch, want_deriv):
    # at 32 stations up to each angle, the values that the schedule returns
    # lie within 1e-14 relative of a 192-point rule on the same panels: on
    # the lattice, frequencies 0 to zeta theta = 500, nearly all of them
    # accepted at 24 points; and near pi, one frequency a call up to 1e21,
    # where the calls stop at every level from 24 to 96 points.  Every
    # frequency converges
    lattice = [(np.concatenate([[0.0], np.geomspace(0.01, 500.0 / th_max, 200)]), th_max)
               for th_max in _LATTICE_ANGLES]
    near_pi = [(np.array([z]), th_max) for th_max in (3.14, 3.1415)
               for z in np.geomspace(500.0 / th_max, 1e21, 40)]
    points, _ = _spy_levels(monkeypatch)
    stops = set()
    for i, (zetas, th_max) in enumerate(lattice + near_pi):
        thetas = th_max * np.arange(1, 33) / 32
        points.clear()
        log_k, ratio = quad_log_k(zetas, thetas, want_deriv)
        if i >= len(lattice):
            stops.add(max(points))       # the level that accepted the one row
        ref_k, ref_r = _reference_rule(monkeypatch, zetas, thetas, want_deriv)
        _assert_within_1e14(log_k, ref_k)
        if want_deriv:
            _assert_within_1e14(ratio, ref_r)
    assert stops == set(conical_module._QUAD_LEVELS)


@pytest.mark.parametrize("zeta", [1e9, 1e12, *_ONCE_REFUSED_NEAR_PI])
def test_near_pi_values_accepted_by_their_own_tail(monkeypatch, zeta):
    # at one station 3.1415 and at 32 up to it, with and without the
    # derivative, the values these frequencies stop at meet the squared-tail
    # test and lie within 1e-14 of the 192-point rule.  The map width
    # follows the integrand's e-folding width, 2.2e-7 at zeta 1e9; the
    # halving panels' width 1/sqrt(1 + zeta theta) was 83 times wider there
    for thetas in (np.array([3.1415]), 3.1415 * np.arange(1, 33) / 32):
        for want_deriv in (False, True):
            log_k, ratio = quad_log_k(zeta, thetas, want_deriv)
            ref_k, ref_r = _reference_rule(monkeypatch, zeta, thetas, want_deriv)
            _assert_within_1e14(log_k, ref_k)
            if want_deriv:
                _assert_within_1e14(ratio, ref_r)


def test_tail_columns_match_legendre_vandermonde():
    # the recurrence columns of _gl_tail against numpy's Legendre
    # Vandermonde matrix, at every level of the schedule
    from numpy.polynomial.legendre import legvander

    for n in conical_module._QUAD_LEVELS:
        x, w = conical_module._gl_rule(n)
        ref = legvander(x, n - 1)[:, -2:] * (np.arange(n - 2, n) + 0.5) * w[:, None]
        tail = conical_module._gl_tail(n)
        assert tail.shape == (n, 2) and not tail.flags.writeable
        assert np.max(np.abs(tail - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("th_max", [1e-3, 0.86, 2.5, 2.9])
def test_panel_groups_match_panel_edges(th_max):
    # the grouping by one comparison with the halvings of pi/2 gives each
    # frequency the edges of a plain halving loop at its width alone: over a
    # dense sweep, at the frequencies whose e-folding widths meet the
    # halvings and their neighbours, and at the cap of 40 edges (1e30)
    def efold_frequency(t):
        # 1/(theta - phi(t)) in _Geometry's form of phi - theta
        s2 = math.sin(t) ** 2
        cos_half = math.sqrt(math.cos(th_max / 2) ** 2 + math.sin(th_max / 2) ** 2 * s2)
        return 1.0 / (2.0 * math.asin(math.sin(th_max / 2) * s2
                                      / (math.cos(th_max / 2) * math.cos(t) + cos_half)))

    meet = [efold_frequency(e) for e in _halving_loop(math.pi / 2, 0.0)[1:12]]
    az = np.abs(np.concatenate([np.arange(50001) * 0.01, _BATCH_ZETAS, [5e-324, 1e30],
                                meet, np.nextafter(meet, 0.0), np.nextafter(meet, np.inf)]))
    groups = conical_module._panel_groups(az, th_max)
    rows = np.concatenate(list(groups.values()))
    assert np.array_equal(np.sort(rows), np.arange(az.size))
    for edges, idx in groups.items():
        for z in az[idx].tolist():
            assert _halving_loop(math.pi / 2, _group_width(z, th_max)) == edges
            assert all(type(e) is float for e in edges)


@pytest.mark.parametrize("theta", [1e-3, 0.5, 1.5, 2.5, 3.0, 3.1415])
def test_efold_width(theta):
    # |zeta| (theta - phi(t1)) = 1, with phi - theta in _Geometry's
    # non-cancelling form, from |zeta| theta = 2 to 1e22, where the plain
    # form arccos(sin(theta/2 - 1/(2|zeta|)) / sin(theta/2)) rounds to 0
    az = np.geomspace(2.0, 1e22, 200) / theta
    t1 = conical_module._efold_width(az, theta)
    ones = np.ones_like(t1)
    geom = conical_module._Geometry.build(np.array([theta]), t1, ones, ones, False, 1,
                                          (None, None))
    assert np.max(np.abs(-az * geom.d_minus[0] - 1.0)) <= 1e-14
    assert t1[-1] > 0.0
    assert np.arccos(np.sin(theta / 2 - 0.5 / az[-1]) / np.sin(theta / 2)) == 0.0
    # at zeta 0 and 5e-324 the width is pi/2, with no division
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_low = conical_module._efold_width(np.array([0.0, 5e-324]), theta)
    assert np.array_equal(t_low, np.full(2, math.pi / 2))


@pytest.mark.parametrize("want_deriv", [False, True])
def test_blocking_changes_no_bit(monkeypatch, want_deriv):
    # one frequency a block and all of a level's frequencies in one block
    # give the default blocks' values, partial last blocks included
    th_star = 0.8 * math.pi
    bounds = (np.concatenate([[0.0], np.geomspace(0.05, 100.0, 64)]),
              panel_rule(th_star, th_star / 2**13, 16)[0])
    extension = (SigmaGrid(L=8.0, n_sigma=1024).rfft_zeta, 0.9 * np.arange(1, 33) / 32)
    for zetas, thetas in (bounds, extension):
        log_k, ratio = quad_log_k(zetas, thetas, want_deriv)
        for block in (1, 2**20):
            monkeypatch.setattr(conical_module, "_QUAD_BLOCK", block)
            lk, r = quad_log_k(zetas, thetas, want_deriv)
            assert np.array_equal(lk, log_k)
            if want_deriv:
                assert np.array_equal(r, ratio)
            monkeypatch.undo()


def test_blas_threads_change_no_bit(tmp_path):
    # the integrals are matrix-vector products; one BLAS thread and two,
    # each in its own process as BLAS reads its thread count at load, give
    # the same bytes on the shapes of test_blocking_changes_no_bit
    script = (
        "import math, sys\n"
        "import numpy as np\n"
        "from conedn.conical import panel_rule, quad_log_k\n"
        "from conedn.grid import SigmaGrid\n"
        "th_star = 0.8 * math.pi\n"
        "shapes = ((np.concatenate([[0.0], np.geomspace(0.05, 100.0, 64)]),\n"
        "           panel_rule(th_star, th_star / 2**13, 16)[0]),\n"
        "          (SigmaGrid(L=8.0, n_sigma=1024).rfft_zeta, 0.9 * np.arange(1, 33) / 32))\n"
        "with open(sys.argv[1], 'wb') as out:\n"
        "    for zetas, thetas in shapes:\n"
        "        for arr in quad_log_k(zetas, thetas, want_deriv=True):\n"
        "            out.write(arr.tobytes())\n"
    )
    src = str(Path(conical_module.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.bin"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] and outputs[0] == outputs[1]


def test_scalar_frequency_gives_rows():
    thetas = np.array([0.4, 1.1])
    for z in (2.0, np.float64(2.0), np.array(2.0)):
        lk, r = quad_log_k(z, thetas, want_deriv=True)
        assert lk.shape == r.shape == (2,)
    lk, r = quad_log_k(np.array([2.0]), thetas, want_deriv=True)
    assert lk.shape == r.shape == (1, 2)


@pytest.mark.parametrize("zeta, thetas, message", [
    (2.0, np.outer([0.4, 0.8], [0.5, 1.0]), r"thetas .* shape \(2, 2\)"),
    (2.0, np.array([]), r"thetas .* shape \(0,\)"),
    ([[1.0, 2.0], [3.0, 4.0]], np.array([0.5]), r"zeta .* shape \(2, 2\)"),
    (2.0, np.array([0.5, 3.5]), r"\(0, pi\), got 3\.5"),
    (math.inf, np.array([0.5]), r"zeta must be finite, got inf"),
    (np.array([1.0, -math.inf]), np.array([0.5]), r"zeta must be finite, got -inf"),
    (math.nan, np.array([0.5]), r"zeta must be finite, got nan"),
    (np.array([1.0, -1e30, 1e30]), np.array([0.5, 1.0]), r"reach, got zeta=-1e\+30 "),
    (1e300, np.array([0.5, 1.0]), r"at most 1\.22e\+23, .* got zeta=1e\+300 "),
], ids=["2-d angles", "no angles", "2-d zeta", "angle beyond pi", "inf", "-inf", "nan",
        "1e30 beyond reach", "1e300 beyond reach"])
def test_malformed_input_refused(zeta, thetas, message):
    # refused before any arithmetic: a RuntimeWarning fails the test
    with pytest.raises(DomainError, match=message):
        quad_log_k(zeta, thetas, want_deriv=True)


def test_converges_to_the_grid_frequency_bound():
    # the grid refuses pi times its top frequency above MAX_ZETA_THETA, below
    # the quadrature's reach: on the edge grid of
    # test_grid_rejects_frequencies_beyond_the_quadrature every frequency
    # converges at stations up to 3.14
    edge = math.pi**2 * 128 / (2.0 * MAX_ZETA_THETA)
    zetas = SigmaGrid(L=edge * (1 + 1e-12), n_sigma=128).rfft_zeta
    for th_max in (0.5, 2.0, 3.0, 3.14):
        log_k, ratio = quad_log_k(zetas, th_max * np.arange(1, 33) / 32, want_deriv=True)
        assert np.all(np.isfinite(log_k)) and np.all(np.isfinite(ratio))


def test_batched_nonconvergence_names_first_frequency(monkeypatch):
    monkeypatch.setattr(conical_module, "QUAD_TOL", -1.0)
    with pytest.raises(EvaluationError, match=r"did not converge at zeta=7\.5:"):
        quad_log_k(_BATCH_ZETAS, np.array([0.5, 1.5]), want_deriv=True)
    with pytest.raises(EvaluationError, match=r"zeta=0:"):
        quad_log_k(0.0, np.array([0.5]))


# ---------------------------------------------------------------------------
# legendre_half / taylor_angle
# ---------------------------------------------------------------------------

def test_legendre_half_at_right_angle():
    # quadrature oracle: P_{1/2}(-cos th) = P_{1/2}(cos(pi-th)) via the
    # half-angle integral (2/pi) int_0^{pi/2} cos(phi(t)) / cos(phi(t)/2) dt
    th = math.pi / 2
    t = np.linspace(0.0, math.pi / 2, 20001)
    s = math.sin((math.pi - th) / 2.0) * np.cos(t)
    phi = 2.0 * np.arcsin(s)
    from scipy.integrate import simpson
    ref = (2.0 / math.pi) * float(simpson(np.cos(phi) / np.cos(phi / 2.0), x=t))
    P, _ = legendre_half(th)
    assert P == pytest.approx(ref, rel=1e-9)


def test_legendre_half_against_mpmath():
    mp.mp.dps = 25
    for th in (0.7, 1.2, 2.0, 2.8):
        P, P1 = legendre_half(th)
        refP = float(mp.legenp(0.5, 0, -math.cos(th)))
        assert P == pytest.approx(refP, rel=1e-12)
        # derivative convention: P1 = sin(th) * dP/dx, checked by FD in x
        h = 1e-6
        x = -math.cos(th)
        dref = (float(mp.legenp(0.5, 0, x + h)) - float(mp.legenp(0.5, 0, x - h))) / (2 * h)
        assert P1 == pytest.approx(math.sin(th) * dref, rel=1e-8)


def test_legendre_half_sign_change_bracket():
    P_lo, _ = legendre_half(0.25 * math.pi)
    P_hi, _ = legendre_half(0.30 * math.pi)
    assert P_lo * P_hi < 0


def test_legendre_half_series_nonconvergence():
    with pytest.raises(EvaluationError):
        legendre_half(1e-8)  # argument -> 1, series cannot converge


@pytest.mark.parametrize("theta", [1e-17, 1e-300])
def test_legendre_half_names_the_callers_tiny_angle(theta):
    # pi - theta rounds to pi: the message names theta, not the reflection
    with pytest.raises(DomainError, match="rounds to pi") as info:
        legendre_half(theta)
    assert repr(theta) in str(info.value)
    assert "3.14159" not in str(info.value)


def test_legendre_half_array_matches_scalar_calls():
    th = np.array([0.7, 0.9, taylor_angle().theta_star, 1.2, 2.0, 2.8, 3.1])
    p, p1 = legendre_half(th)
    assert p.shape == p1.shape == th.shape
    ref = np.array([legendre_half(float(t)) for t in th]).T
    # P vanishes at theta*: its scale is the series' own, max(1, |P|)
    assert np.all(np.abs(p - ref[0]) <= 1e-14 * np.maximum(1.0, np.abs(ref[0])))
    assert np.all(np.abs(p1 - ref[1]) <= 1e-14 * np.abs(ref[1]))


def _series_loop(theta, m2, k):
    """Reference for legendre_dtheta: the running-term sums S_0..S_k one
    term at a time in scalar floats, with the library's stop."""
    z = math.sin(theta / 2.0) ** 2
    term, sums = 1.0, [0.0] * (k + 1)
    for n in range(conical_module.SERIES_MAX_TERMS):
        parts = [term]
        for j in range(1, k + 1):
            parts.append(parts[-1] * ((n + j - 0.5) ** 2 + m2) / (n + j))
        sums = [s + p for s, p in zip(sums, parts)]
        if all(abs(p) <= conical_module.SERIES_TOL * max(1.0, abs(s))
               for p, s in zip(parts, sums)):
            break
        term = parts[1] * z / (n + 1)
    zp, zpp = math.sin(theta) / 2.0, math.cos(theta) / 2.0
    return [sums[0], zp * sums[1], zpp * sums[1] + zp**2 * sums[2],
            sums[3] * zp**3 + 3.0 * zp * zpp * sums[2] - zp * sums[1]][:k + 1]


def test_legendre_dtheta_blocks_match_term_loop():
    # the block's cumulative product reassociates the running term: a few
    # ulps a term, so 1e-14 of max(1, |a_j|) over the 260 terms near 2.3
    for theta in (0.3, 0.86, 1.7, 2.3):
        for m2 in (-1.0, 0.0, 9.0, 400.0):
            rows = legendre_dtheta(theta, m2, 3)
            ref = np.array(_series_loop(theta, m2, 3))
            assert np.all(np.abs(rows - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


def test_legendre_series_domain():
    with pytest.raises(DomainError):
        legendre_half(np.array([1.0, 0.0]))
    for k in (0, 4):
        with pytest.raises(DomainError):
            legendre_dtheta(1.0, 0.0, k)


def test_taylor_angle_value_and_residual():
    ang = taylor_angle()
    assert abs(ang.theta_star / math.pi - 0.2738) <= 1e-3
    P, _ = legendre_half(ang.theta_star)
    assert abs(P) <= 1e-9


def test_taylor_angle_positive_associated_value():
    ang = taylor_angle()
    _, P1 = legendre_half(ang.theta_star)
    assert P1 > 0


def test_taylor_angle_solved_once_per_process(monkeypatch):
    calls = []
    half = conical_module.legendre_half

    def counted(theta):
        calls.append(theta)
        return half(theta)

    monkeypatch.setattr(conical_module, "legendre_half", counted)
    taylor_angle.cache_clear()
    cfg = load_config(None)
    angle = cfg.cone_angle()
    newton = len(calls)
    assert newton > 0
    assert cfg.profile().theta_star == angle
    assert cfg.physical_params().C < 0
    assert len(calls) == newton


def test_i0_derivative_refuses_order_beyond_four():
    with pytest.raises(DomainError, match=r"derivative order must be in 0\.\.4, got 5"):
        bessel_i0_derivative_scaled(5, 1.0)


@pytest.fixture
def fresh_taylor_angle():
    """The Taylor angle's cache emptied before and after the test, so the
    test's Newton iteration runs and leaves nothing behind."""
    taylor_angle.cache_clear()
    yield
    taylor_angle.cache_clear()


def test_taylor_angle_refuses_an_iterate_outside_the_bracket(monkeypatch,
                                                             fresh_taylor_angle):
    # a slope of 1e-3 turns the first residual into a step of about 0.5
    monkeypatch.setattr(conical_module, "legendre_half",
                        lambda theta: (legendre_half(theta)[0], 1e-3))
    with pytest.raises(EvaluationError, match=r"Newton iterate .* left the bracket"):
        taylor_angle()


def test_taylor_angle_refuses_a_newton_run_that_does_not_settle(monkeypatch,
                                                               fresh_taylor_angle):
    # steps of 1e-3 alternating about the middle of the bracket never shrink
    mid = 0.275 * math.pi
    monkeypatch.setattr(conical_module, "legendre_half",
                        lambda theta: (1e-3 if theta > mid else -1e-3, 1.0))
    with pytest.raises(EvaluationError, match=r"took 50 steps without a step below 1\.0e-10"):
        taylor_angle()
