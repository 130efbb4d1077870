"""Shape calculus of the perturbed-cone DN operator.

Three pieces:

* the closed-form derivative of the DN operator in the profile direction h,
  validated against central finite differences of the strip solver;
* the cancellation quantity G(B + V) + d_sigma(V - B), whose spectral tail
  decays one order faster than its individual terms (on the exact cone its
  symbol is g(zeta)^2 - zeta^2 = O(zeta), two orders below the naive
  zeta^2);
* the graded expansion of the DN operator in powers of a fixed perturbation
  shape, built on the exact-cone symbol table: its multipliers a_k/a_0 are
  the theta-derivative ratios of the kernel at theta*, from g through
  Legendre's equation.  This module sums no series: the ``stokes`` check
  compares the multipliers with the rows a_0..a_3 of the kernel's
  hypergeometric series, :func:`conedn.conical.legendre_dtheta`.

The expansion recursion implemented here places the slope factor at degree
l - 1 (slope term: eta_s eta^{l-1} times the (l-1)-th multiplier applied to
d_sigma phi); the alternative placement at degree l breaks the measured
O(eps^3) remainder and is rejected by the solver oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conical import dtheta_ratios_from_seed
from .errors import DomainError
from .grid import GridFn, binary_scaled, dsigma_values, mode_amplitudes, multiplier_values
from .strip import ConeProfile, StripGrid, dn_general

__all__ = [
    "DecayReport",
    "shape_derivative",
    "shape_central_difference",
    "cancellation_quantity",
    "expansion_multipliers",
    "stokes_g_ell",
]


def shape_derivative(profile: ConeProfile, phi: GridFn, h: GridFn,
                     grid: StripGrid) -> GridFn:
    """Derivative of the DN operator in the profile direction h:

        -G[eta](h B + V) - d_sigma(h V - B) + (h - eta_s){phi/4 - B cot(eta)}

    where B and V are the normal and tangential boundary traces of the
    extension of phi.  The h-independent part of the formula vanishes
    identically (a consequence of the trace identity), so the value is
    linear in h up to discretization error.
    """
    sgrid = profile.grid
    if h.grid != profile.grid:
        raise DomainError("profile and shape direction live on different grids")
    res = dn_general(profile, phi, grid)
    b = res.b_normal.values
    vt = res.v_tangential.values
    hv = h.values

    second = dn_general(profile, GridFn(sgrid, hv * b + vt), grid)
    g2 = second.g_of_phi.values

    eta, eta_s = profile.eta, profile.eta_sigma
    cot = np.cos(eta) / np.sin(eta)
    bracket = phi.values / 4.0 - b * cot
    out = -g2 - dsigma_values(sgrid, hv * vt - b) + (hv - eta_s) * bracket
    return GridFn(sgrid, out)


def shape_central_difference(profile: ConeProfile, phi: GridFn, h: GridFn,
                             grid: StripGrid, epsilon: float) -> GridFn:
    """(G[eta + epsilon h] - G[eta - epsilon h]) phi / (2 epsilon): the
    solver-only oracle for :func:`shape_derivative`."""
    if h.grid != profile.grid:
        raise DomainError("profile and shape direction live on different grids")

    def g_of_phi(sign: float) -> np.ndarray:
        tilde = profile.eta_tilde.values + (sign * epsilon) * h.values
        shifted = ConeProfile(profile.theta_star, GridFn(profile.grid, tilde))
        return dn_general(shifted, phi, grid).g_of_phi.values

    return GridFn(profile.grid, (g_of_phi(1.0) - g_of_phi(-1.0)) / (2.0 * epsilon))


# ---------------------------------------------------------------------------
# cancellation quantity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    """Spectral tail slopes of the cancellation quantity and its terms."""

    slopes: dict[str, float]
    gain: float
    passed: bool


#: the cancellation check passes when Q's tail decays at least this much
#: faster than the shallowest of its four terms
GAIN_MIN = 0.8


def _tail_slope(f: GridFn) -> float:
    """Least-squares slope of y = log a_k against x = log zeta_k, a_k the
    mode amplitudes, over the top octave of resolved frequencies, excluding
    the last 10% (aliasing guard).  The slope is the closed form
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2, which needs no LAPACK
    routine.  It is scale-free: the amplitudes are those of f scaled by
    :func:`binary_scaled`, so a nonzero field's amplitudes stay clear of the
    floors."""
    n = f.grid.n_sigma
    z = f.grid.rfft_zeta[1:n // 2]
    mags = mode_amplitudes(GridFn(f.grid, binary_scaled(f.values)[0]))[1:n // 2]
    z_hi = 0.9 * z[-1]
    band = (z >= z_hi / 2.0) & (z <= z_hi)
    m = mags[band]
    if m.size < 4 or np.all(m < 1e-250):
        return 0.0
    x = np.log(z[band])
    y = np.log(np.maximum(m, 1e-300))
    dx = x - np.mean(x)
    return float(np.sum(dx * (y - np.mean(y))) / np.sum(dx * dx))


def cancellation_quantity(profile: ConeProfile, phi: GridFn,
                          grid: StripGrid) -> tuple[GridFn, DecayReport]:
    """Q = G[eta](B + V) + d_sigma(V - B) and its decay bookkeeping.

    Although each term is a second-order operation on phi, the combination
    is first order: the report records tail slopes of Q and of the four
    individual terms, and the gain (shallowest term slope minus Q's slope).
    """
    sgrid = profile.grid
    res = dn_general(profile, phi, grid)
    b = res.b_normal.values
    vt = res.v_tangential.values

    g_of_b = dn_general(profile, res.b_normal, grid).g_of_phi.values
    g_of_v = dn_general(profile, res.v_tangential, grid).g_of_phi.values
    ds_b = dsigma_values(sgrid, b)
    ds_v = dsigma_values(sgrid, vt)

    q = GridFn(sgrid, g_of_b + g_of_v + ds_v - ds_b)
    slopes = {
        "q": _tail_slope(q),
        "g_of_b": _tail_slope(GridFn(sgrid, g_of_b)),
        "g_of_v": _tail_slope(GridFn(sgrid, g_of_v)),
        "dsigma_b": _tail_slope(GridFn(sgrid, ds_b)),
        "dsigma_v": _tail_slope(GridFn(sgrid, ds_v)),
    }
    shallowest = max(v for k, v in slopes.items() if k != "q")
    gain = shallowest - slopes["q"]
    return q, DecayReport(slopes=slopes, gain=gain, passed=bool(gain >= GAIN_MIN))


# ---------------------------------------------------------------------------
# graded expansion in a fixed perturbation shape
# ---------------------------------------------------------------------------

def expansion_multipliers(table) -> list[np.ndarray]:
    """The multipliers A_k = a_k(m)/a_0(m), k = 0..3, of the graded DN
    expansion at the nonnegative frequencies ``table.grid.rfft_zeta``:
    A_0 = 1, A_1 = g from ``table`` (a :class:`conedn.flat.SymbolTable`)
    and A_2, A_3 from g through Legendre's equation
    (:func:`conedn.conical.dtheta_ratios_from_seed`)."""
    zeta = table.grid.rfft_zeta
    return [np.ones(zeta.size)] + dtheta_ratios_from_seed(
        zeta, table.theta_star.theta_star, table.g[:zeta.size])


def stokes_g_ell(table, eta_tilde: GridFn, ell: int, phi: GridFn) -> GridFn:
    """Degree-ell operator of the graded DN expansion in the shape eta_tilde.

    Recursion (slope factor at degree ell - 1):

      G_l phi = (1/l!) eta^l A_{l+1} phi
              - (1/(l-1)!) eta_s eta^{l-1} A_{l-1} d_sigma phi    (l >= 1)
              - sum_{j<l} (1/(l-j)!) G_j[eta^{l-j} A_{l-j} phi]

    where A_k is the Fourier multiplier a_k(m)/a_0(m) of
    :func:`expansion_multipliers`, from ``table`` (a
    :class:`conedn.flat.SymbolTable` on the grid of eta_tilde and phi).
    G_0 is the exact-cone DN multiplier.
    """
    if ell < 0 or ell > 2:
        raise DomainError(f"expansion degree must be in 0..2, got {ell}")
    grid = table.grid
    if eta_tilde.grid != grid or phi.grid != grid:
        raise DomainError("symbol table, perturbation shape and data live on "
                          "different grids")
    ratios = expansion_multipliers(table)

    tilde = eta_tilde.values
    tilde_s = dsigma_values(grid, tilde)

    def mult(k: int, vals: np.ndarray) -> np.ndarray:
        return multiplier_values(grid, vals, ratios[k])

    def g_rec(l: int, vals: np.ndarray) -> np.ndarray:
        if l == 0:
            return mult(1, vals)
        out = (tilde**l / math.factorial(l)) * mult(l + 1, vals)
        out -= (tilde_s * tilde ** (l - 1) / math.factorial(l - 1)) \
            * mult(l - 1, dsigma_values(grid, vals))
        for j in range(l):
            out -= g_rec(j, tilde ** (l - j) * mult(l - j, vals)) \
                / math.factorial(l - j)
        return out

    return GridFn(grid, g_rec(ell, phi.values))
