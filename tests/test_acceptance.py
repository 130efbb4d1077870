"""Ten acceptance criteria, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see every verdict line; each
test enforces its stated tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from conedn import (
    ConeProfile,
    GridFn,
    PhysicalParams,
    SigmaGrid,
    Spectrum,
    StripGrid,
    SurfaceTheta,
    build_symbol_table,
    cancellation_quantity,
    conical_p,
    conical_p_dtheta,
    dn_flat,
    dn_general,
    electric_functional,
    equilibrium_constant,
    l2_norm,
    legendre_half,
    mean_curvature,
    pullback_norm_check,
    shape_derivative,
    stokes_coefficients,
    stokes_g_ell,
    taylor_angle,
    to_gridfn,
    to_physical_unknown,
    to_strip_unknown,
    verify_kernel_bounds,
    zakharov_rhs,
)
from conedn.shape import ShapePerturbation


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def _band_limited(grid, kmax, decay, seed):
    rng = np.random.default_rng(seed)
    n = grid.n_sigma
    coeffs = np.zeros(n, dtype=complex)
    for k in range(1, kmax + 1):
        c = (rng.normal() + 1j * rng.normal()) * math.exp(-k / decay)
        coeffs[k] = c
        coeffs[n - k] = np.conj(c)
    coeffs[0] = rng.normal()
    return to_gridfn(Spectrum(grid, coeffs))


@pytest.fixture(scope="module")
def angle():
    return taylor_angle()


@pytest.fixture(scope="module")
def bounds_report(angle):
    grid = SigmaGrid(L=8.0, n_sigma=128)
    table = build_symbol_table(grid, angle)
    start = time.perf_counter()
    report = verify_kernel_bounds(table, zeta_max=100.0)
    return report, time.perf_counter() - start


def test_criterion_01_taylor_angle():
    start = time.perf_counter()
    angle = taylor_angle()
    p_val, _ = legendre_half(angle.theta_star)
    elapsed = time.perf_counter() - start
    ratio = angle.theta_star / math.pi
    ok = (abs(ratio - 0.2738) <= 1e-3 and abs(p_val) <= 1e-9
          and elapsed < 1.0)
    _verdict(1, ok, f"theta*/pi = {ratio:.6f}, |P| = {abs(p_val):.2e}, "
                    f"{elapsed:.2f}s")


def test_criterion_02_bessel_bounds(bounds_report):
    report, elapsed = bounds_report
    ok = (report.bessel_sup <= 1.0 + 1e-9
          and report.bessel_weighted_sup <= 3.0 + 1e-9
          and elapsed < 10.0)
    _verdict(2, ok, f"sup integral = {report.bessel_sup:.6f}, "
                    f"sup x*integral = {report.bessel_weighted_sup:.6f}, "
                    f"{elapsed:.2f}s")


def test_criterion_03_kernel_bounds(bounds_report):
    report, elapsed = bounds_report
    finite = all(np.isfinite(report.s_sup))
    spread = max(report.plateau_spread)
    ok = finite and spread < 0.05 and elapsed < 60.0
    _verdict(3, ok, f"suprema = {[f'{s:.3g}' for s in report.s_sup]}, "
                    f"running-sup spread on [50,100] = {spread:.2%}, "
                    f"{elapsed:.2f}s")


def test_criterion_04_large_frequency_asymptotics(angle):
    from conedn.conical import bessel_i_scaled, quad_log_k, sinc
    start = time.perf_counter()
    zeta = 100.0
    th = angle.theta_star
    x = zeta * th
    log_i0 = math.log(bessel_i_scaled(0, x)) + x
    ratio = math.exp(float(quad_log_k(zeta, np.array([th]))[0][0])
                     + 0.5 * math.log(float(sinc(th))) - log_i0)
    elapsed = time.perf_counter() - start
    ok = 0.98 <= ratio <= 1.02 and elapsed < 1.0
    _verdict(4, ok, f"kernel/Bessel ratio at zeta=100: {ratio:.6f}, "
                    f"{elapsed:.2f}s")


def test_criterion_05_flat_consistency(angle):
    start = time.perf_counter()
    grid = SigmaGrid(L=8.0, n_sigma=256)
    phi = GridFn.from_callable(grid, lambda s: np.exp(-((s / 1.8) ** 2)))
    flat = ConeProfile.flat(grid, angle)
    table = build_symbol_table(grid, angle)
    ref = dn_flat(phi, table)
    errs = []
    for n_y in (32, 64, 128):
        res = dn_general(flat, phi, StripGrid(sigma=grid, n_y=n_y))
        errs.append(l2_norm(GridFn(grid, res.g_of_phi.values - ref.values))
                    / l2_norm(phi))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    elapsed = time.perf_counter() - start
    ok = bool(np.all(np.abs(slopes - 2.0) <= 0.3)) and elapsed < 120.0
    _verdict(5, ok, f"errors = {[f'{e:.2e}' for e in errs]}, "
                    f"slopes = {[f'{s:.2f}' for s in slopes]}, {elapsed:.1f}s")


def test_criterion_06_shape_derivative(angle):
    start = time.perf_counter()
    grid = SigmaGrid(L=8.0, n_sigma=128)
    s = grid.sigma
    eta = GridFn(grid, 0.1 * np.exp(-((s / 1.5) ** 2)))
    profile = ConeProfile(angle, eta)
    h = ShapePerturbation(GridFn(grid, np.exp(-((s / 2.0) ** 2))))
    phi = GridFn(grid, np.exp(-((s / 1.8) ** 2))
                 * np.cos(math.pi * 6.0 * s / grid.L))
    eps = 1e-3
    hv = h.h.values.real
    tilde = eta.values.real

    gaps = []
    for n_y in (32, 64, 128):
        sgrid = StripGrid(sigma=grid, n_y=n_y)
        formula = shape_derivative(profile, phi, h, sgrid).values
        shifted = []
        for sign in (+1.0, -1.0):
            pert = ConeProfile(angle, GridFn(grid, tilde + sign * eps * hv))
            shifted.append(dn_general(pert, phi, sgrid).g_of_phi.values)
        fd = (shifted[0] - shifted[1]) / (2.0 * eps)
        gaps.append(l2_norm(GridFn(grid, formula - fd))
                    / l2_norm(GridFn(grid, fd)))
    slopes = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    elapsed = time.perf_counter() - start
    ok = (gaps[-1] <= 1e-3 and bool(np.all(np.abs(slopes - 2.0) <= 0.3))
          and elapsed < 120.0)
    _verdict(6, ok, f"rel gap at finest = {gaps[-1]:.2e} (tol 1e-3), "
                    f"refinement slopes = {[f'{x:.2f}' for x in slopes]}, "
                    f"{elapsed:.1f}s")


def test_criterion_07_graded_expansion(angle):
    start = time.perf_counter()
    # first clause: series coefficients reproduce the multiplier
    m_small = np.arange(9, dtype=float)
    coeffs = stokes_coefficients(angle, m_small, order=2)
    th = angle.theta_star
    g_direct = np.array([
        conical_p_dtheta(m, th, 1) / conical_p(m, th)
        for m in m_small
    ])
    ratio_gap = float(np.max(np.abs(coeffs.a[1] / coeffs.a[0] - g_direct)
                             / g_direct))

    # second clause: the degree <= 2 partial sum leaves a cubic remainder;
    # the eps-independent discretization bias is measured at eps = 0 and
    # removed before fitting
    grid = SigmaGrid(L=8.0, n_sigma=128)
    table = stokes_coefficients(angle, np.abs(grid.zeta), order=2)
    shape = _band_limited(grid, 6, 3.0, 11)
    sv = shape.values.real / np.max(np.abs(shape.values.real))
    phi = _band_limited(grid, 12, 3.0, 12)
    sgrid = StripGrid(sigma=grid, n_y=384)
    flat = ConeProfile.flat(grid, angle)
    delta0 = (dn_general(flat, phi, sgrid).g_of_phi.values.real
              - stokes_g_ell(table, GridFn.zeros(grid), 0, phi).values.real)
    eps_list = (0.02, 0.01, 0.005)
    rems = []
    for eps in eps_list:
        prof = ConeProfile(angle, GridFn(grid, eps * sv))
        full = dn_general(prof, phi, sgrid).g_of_phi.values.real
        approx = sum(stokes_g_ell(table, GridFn(grid, eps * sv), l,
                                  phi).values.real for l in range(3))
        rems.append(l2_norm(GridFn(grid, full - approx - delta0)))
    slope = float(np.polyfit(np.log(eps_list), np.log(rems), 1)[0])
    elapsed = time.perf_counter() - start
    ok = (ratio_gap <= 1e-6 and abs(slope - 3.0) <= 0.5 and elapsed < 180.0)
    _verdict(7, ok, f"a1/a0 vs g gap = {ratio_gap:.2e} (tol 1e-6), "
                    f"remainder slope = {slope:.2f} (3 +- 0.5), {elapsed:.1f}s")


def test_criterion_08_cancellation(angle):
    start = time.perf_counter()
    # flat case: the symbol-level combination stays bounded with a plateau
    fine = SigmaGrid(L=8.0, n_sigma=1024)
    table = build_symbol_table(fine, angle)
    zeta = np.abs(fine.zeta)
    mask = zeta > 0
    combo = (np.abs(table.g[mask] ** 2 - zeta[mask] ** 2)
             / np.sqrt(1.0 + zeta[mask] ** 2))
    sup_200 = float(np.max(combo[zeta[mask] <= 200.0]))
    band = combo[(zeta[mask] >= 100.0) & (zeta[mask] <= 200.0)]
    spread = float((np.max(band) - np.min(band)) / np.max(band))

    # perturbed case: tail-decay gain of the rearranged combination
    grid = SigmaGrid(L=8.0, n_sigma=256)
    eta = GridFn.from_callable(grid, lambda s: 0.1 * np.exp(-((s / 1.5) ** 2)))
    profile = ConeProfile(angle, eta)
    n = grid.n_sigma
    k = np.arange(n)
    k_signed = np.where(k <= n // 2, k, k - n)
    z = np.abs(grid.zeta)
    coeffs = (1.0 + z**2) ** -2 * np.exp(1j * (0.7 * k_signed
                                               + 0.31 * k_signed**2))
    coeffs[n // 2] = 0.0
    phi = to_gridfn(Spectrum(grid, coeffs))
    phi = GridFn(grid, phi.values.real)
    _, report = cancellation_quantity(profile, phi,
                                      StripGrid(sigma=grid, n_y=128))
    elapsed = time.perf_counter() - start
    ok = (np.isfinite(sup_200) and spread < 0.05 and report.gain >= 0.8
          and elapsed < 120.0)
    _verdict(8, ok, f"flat sup = {sup_200:.4f} "
                    f"(plateau spread {spread:.2%}), "
                    f"perturbed gain = {report.gain:.2f} orders, "
                    f"{elapsed:.1f}s")


def test_criterion_09_taylor_equilibrium(angle):
    start = time.perf_counter()
    grid = SigmaGrid(L=8.0, n_sigma=128)
    sgrid = StripGrid(sigma=grid, n_y=64)
    base = PhysicalParams(kappa=1.3, rho=0.7, epsilon=2.1, C=1.0)
    c_star = equilibrium_constant(base, angle)
    params = PhysicalParams(kappa=base.kappa, rho=base.rho,
                            epsilon=base.epsilon, C=c_star)
    surface = SurfaceTheta(ConeProfile.flat(grid, angle))
    rhs_theta, rhs_psi = zakharov_rhs(surface, GridFn.zeros(grid), params,
                                      sgrid)
    capillary = ((params.kappa / params.rho)
                 * np.abs(mean_curvature(surface).values))
    electric = ((params.epsilon / (2.0 * params.rho))
                * np.abs(electric_functional(surface, params, sgrid).values))
    rel = float(np.max(np.abs(rhs_psi.values))) / min(np.max(capillary),
                                                      np.max(electric))
    theta_max = float(np.max(np.abs(rhs_theta.values)))
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-10 and theta_max == 0.0 and elapsed < 30.0
    _verdict(9, ok, f"max|rhs_psi| = {rel:.2e} of the cancelling terms "
                    f"(tol 1e-10), max|rhs_Theta| = {theta_max:g}, "
                    f"{elapsed:.1f}s")


def test_criterion_10_norm_equivalence():
    start = time.perf_counter()
    grid = SigmaGrid(L=8.0, n_sigma=128)
    phi = GridFn.from_callable(grid, lambda s: np.exp(-((s / 1.8) ** 2)))
    lhs, rhs = pullback_norm_check(phi, 1)
    equality_gap = abs(lhs - rhs) / rhs
    psi = to_physical_unknown(phi)
    back = to_physical_unknown(to_strip_unknown(psi))
    roundtrip = (float(np.max(np.abs(back.values - psi.values)))
                 / float(np.max(np.abs(psi.values))))
    elapsed = time.perf_counter() - start
    ok = equality_gap <= 1e-6 and roundtrip <= 1e-12 and elapsed < 1.0
    _verdict(10, ok, f"m=1 pullback gap = {equality_gap:.2e} (tol 1e-6), "
                     f"round-trip = {roundtrip:.2e} (tol 1e-12), "
                     f"{elapsed:.2f}s")
