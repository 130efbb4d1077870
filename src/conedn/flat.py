"""Exact-cone Dirichlet-Neumann machinery.

On the exact cone the DN operator diagonalizes over the log-radial modes: it
is the Fourier multiplier g(zeta) = k1(zeta, theta*) / k(zeta, theta*) built
from the conical Legendre function and its angle derivative.  This module
builds that symbol table, applies it, reconstructs the interior harmonic
extension row by row through the kernel ratio k(zeta, theta)/k(zeta, theta*),
and numerically verifies the kernel integral bounds that make the operator a
first-order map between Sobolev spaces.

All kernel ratios are exponentials of log differences, so the machinery
survives zeta*theta up to 500.  Kernel values come from the quadrature of
:mod:`conedn.conical`, called once per set of angles with every frequency
at once (six calls for a symbol table, an extension and a bounds check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .conical import (
    ConeAngle,
    bessel_i0_derivative_scaled,
    dtheta_ratios_from_seed,
    panel_rule,
    quad_log_k,
)
from .errors import DomainError
from .grid import GridFn, SigmaGrid, l2_norm, multiplier_values
from .strip import StripField, StripGrid

__all__ = [
    "SymbolTable",
    "KernelBoundsReport",
    "build_symbol_table",
    "dn_flat",
    "exact_cone_gap",
    "extend_flat",
    "verify_kernel_bounds",
]

@dataclass(frozen=True)
class SymbolTable:
    """First-order DN symbol g over the grid frequencies (FFT ordering)."""

    grid: SigmaGrid
    theta_star: ConeAngle
    g: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        g = np.array(self.g, dtype=float, copy=True)
        g.setflags(write=False)
        object.__setattr__(self, "g", g)


def build_symbol_table(grid: SigmaGrid, theta_star: ConeAngle) -> SymbolTable:
    """Evaluate g(zeta_k) = k1(zeta_k, theta*)/k(zeta_k, theta*) on the grid.

    Even in zeta by construction (evaluated at |zeta_k|); strictly positive.
    """
    th = theta_star.theta_star
    half = quad_log_k(grid.rfft_zeta, np.array([th]), want_deriv=True)[1][:, 0]
    return SymbolTable(grid=grid, theta_star=theta_star,
                       g=np.concatenate([half, half[-2:0:-1]]))


def dn_flat(phi: GridFn, table: SymbolTable) -> GridFn:
    """Apply the exact-cone DN multiplier g to the boundary data."""
    if phi.grid != table.grid:
        raise DomainError("grid mismatch between data and symbol table")
    half = table.g[: phi.grid.rfft_zeta.size]
    return GridFn(phi.grid, multiplier_values(phi.grid, phi.values, half))


def exact_cone_gap(phi: GridFn, g_of_phi: GridFn, theta_star: ConeAngle) -> float:
    """Relative L2 gap |g_of_phi - dn_flat(phi)| / |phi| between a DN value
    of phi and the exact-cone multiplier at theta*."""
    ref = dn_flat(phi, build_symbol_table(phi.grid, theta_star))
    return l2_norm(g_of_phi - ref) / l2_norm(phi)


#: extend_flat accepts stations up to theta* plus this, so that a last
#: station computed as theta* times a fraction that rounds up stays in
STATION_SLACK = 1e-15


def extend_flat(phi: GridFn, theta_samples: np.ndarray, table: SymbolTable) -> StripField:
    """Harmonic extension of phi into the cone, sampled on angular stations.

    Column i carries the field at theta_samples[i]: in transform space it
    is phihat * k(zeta, theta_i)/k(zeta, theta*).  The returned field stores
    the stations in ``y_samples`` (as fractions theta/theta*).
    """
    th_star = table.theta_star.theta_star
    thetas = np.asarray(theta_samples, dtype=float)
    if thetas.ndim != 1 or thetas.size == 0:
        raise DomainError("theta_samples must be a nonempty 1-d array")
    if np.any(thetas <= 0.0) or np.any(thetas > th_star + STATION_SLACK):
        raise DomainError("theta_samples must lie in (0, theta*]")

    grid = phi.grid
    # kernel ratio k(zeta, theta)/k(zeta, theta*), one row per transform mode
    log_rows, _ = quad_log_k(grid.rfft_zeta, thetas)
    log_star, _ = quad_log_k(grid.rfft_zeta, np.array([th_star]))
    ratios = np.exp(log_rows - log_star)
    values = multiplier_values(grid, phi.values[:, None], ratios)

    sgrid = StripGrid(sigma=grid, n_y=max(16, thetas.size))
    return StripField(grid=sgrid, values=values, y_samples=thetas / th_star)


# ---------------------------------------------------------------------------
# kernel bound verification
# ---------------------------------------------------------------------------

#: the running suprema of S_0..S_3 count as a plateau when they spread by
#: less than this share over the upper half of the zeta range
PLATEAU_SPREAD_MAX = 0.05
#: rounding slack on the Bessel ratio bounds sup <= 1 and sup x * (.) <= 3
BESSEL_SLACK = 1e-9
#: a theta panel is left out of S_0..S_3 at zeta when the bound on
#: (k/k*)^2 at its upper edge is below SKIP_BOUND * (1 + zeta)^-8
SKIP_BOUND = 1e-25
#: Gauss-Legendre nodes per panel of the angular rule of S_0..S_3
_PANEL_NODES = 16
#: the lowest frequency of the geometric zeta lattice of S_0..S_3
_LATTICE_START = 0.05
#: S_0..S_3 are summed over blocks of this many frequency rows
_S_ROWS = 32


@dataclass(frozen=True)
class KernelBoundsReport:
    """Suprema of the kernel ratio integrals and the Bessel ratio integrals."""

    zeta: np.ndarray
    s_values: np.ndarray            # shape (4, n_zeta): S0, S1, S2, S3
    s_sup: tuple[float, float, float, float]
    s_argsup: tuple[float, float, float, float]
    plateau_spread: tuple[float, float, float, float]
    bessel_x: np.ndarray
    bessel_integrals: np.ndarray    # shape (5, n_x)
    bessel_sup: float               # sup over k, x of the plain integral
    bessel_weighted_sup: float      # sup over k, x of x * integral
    passed: bool


@lru_cache(maxsize=1)
def _bessel_ratio_integrals() -> tuple[np.ndarray, np.ndarray]:
    """The Bessel derivative-ratio integrals
    int_0^1 (I0^{(k)}(y x) / I0(x))^2 dy for k = 0..4 at 200 points x in
    [0, 50], as (xs, integrals of shape (5, 200)).  With s = y x an integral
    is int_0^x I0^{(k)}(s)^2 ds / (x I0(x)^2), so the 200 values are prefix
    sums of one integral over [0, 50], taken by an 8-point Gauss-Legendre
    panel between consecutive x; at x = 0 the value is the limit
    I0^{(k)}(0)^2.  They do not depend on the cone, so they are computed
    once per process; both arrays are read-only and shared between
    callers."""
    xs = np.linspace(0.0, 50.0, 200)
    # one panel between consecutive x, scaled to its width
    t, wt = panel_rule(1.0, 1.0, 8)
    dx = np.diff(xs)
    s = (xs[:-1, None] + dx[:, None] * t).ravel()
    args = np.concatenate([s, xs])
    scaled = np.array([bessel_i0_derivative_scaled(k, args) for k in range(5)])
    nodes, at_x = scaled[:, :s.size], scaled[:, s.size:]
    # I0^{(k)}(s)^2 = (e^{-s} I0^{(k)}(s))^2 e^{2s} stays finite up to s = 50
    panels = dx * ((nodes**2 * np.exp(2.0 * s)).reshape(5, dx.size, t.size) @ wt)
    bessel = np.empty((5, xs.size))
    bessel[:, 0] = at_x[:, 0] ** 2                 # I0(0) = 1
    bessel[:, 1:] = np.cumsum(panels, axis=1) / (xs[1:] * np.exp(2.0 * xs[1:]) * at_x[0, 1:] ** 2)
    xs.setflags(write=False)
    bessel.setflags(write=False)
    return xs, bessel


def verify_kernel_bounds(table: SymbolTable, zeta_max: float) -> KernelBoundsReport:
    """Evaluate the kernel-ratio integrals S_0..S_3 over [0, zeta_max] and the
    Bessel derivative-ratio integrals over x in [0, 50]; report suprema,
    arg-suprema, and plateau behavior of the running suprema.

    S_0..S_3 are angular quadratures over 14 panels of 16 nodes on
    (0, theta*].  Their integrands carry (k/k*)^2, which the Mehler-Dirichlet
    integral of k (0 <= phi <= theta) bounds by

        (k/k*)^2 <= exp(2 (zeta theta - log cos(theta/2) - log k*)),

    and their other factors grow with zeta like a polynomial: by
    0 <= k1/k <= zeta + tan(theta/2)/2 and Legendre's equation for k2/k and
    k3/k.  At each zeta, the panels whose upper edge gives a bound below
    SKIP_BOUND * (1 + zeta)^-8 = 1e-25 (1 + zeta)^-8 are not evaluated:
    their entries count 0.  The factor (1 + zeta)^-8 absorbs the growth of
    the other factors, and SKIP_BOUND is at most 2^-60 of every S value
    that a skipped panel belongs to (the smallest such S is about 7e-6), so
    each left-out share lies more than 2^-8 below the last bit of its S
    value.  The bound grows with theta, so these panels are the lowest
    ones, and the one ending at theta* is always kept.  Two quadrature
    calls take all frequencies: one over every panel, one over the panels
    from q on for the frequencies that may skip all panels below q, with q
    chosen to leave the fewest (zeta, theta) pairs.  The zeta lattice
    starts at 0.05, so ``zeta_max`` must lie in (0.05, 500].
    """
    if not (_LATTICE_START < zeta_max <= 500.0):
        raise DomainError(
            f"zeta_max must lie in ({_LATTICE_START}, 500], above the start of the "
            f"zeta lattice, got {zeta_max}")
    # built before the kernel arrays below, so that its temporaries are
    # freed before those arrays are allocated, not held on top of them
    xs, bessel = _bessel_ratio_integrals()
    th_star = table.theta_star.theta_star

    # zeta samples: geometric lattice plus the grid frequencies
    geo = np.geomspace(_LATTICE_START, zeta_max, 64)
    freqs = np.abs(table.grid.zeta)
    freqs = freqs[(freqs > 0) & (freqs <= zeta_max)]
    zetas = np.unique(np.concatenate([[0.0], geo, freqs]))

    # 14 panels on (0, theta*], the one at 0 of width theta*/2^13
    thetas, weights = panel_rule(th_star, th_star / 2**13, _PANEL_NODES)
    log_star, _ = quad_log_k(zetas, np.array([th_star]))
    # per row, the number of panels whose bound at the upper edge
    # theta*/2^13, ..., theta*/2, theta* falls below the cut
    edges = th_star * 2.0 ** np.arange(-13, 1)
    log_bound = 2.0 * (zetas[:, None] * edges - np.log(np.cos(edges / 2.0)) - log_star)
    log_cut = math.log(SKIP_BOUND) - 8.0 * np.log1p(zetas)
    n_skip = np.count_nonzero(log_bound < log_cut[:, None], axis=1)
    # the rows that may skip the panels below q skip them, the others keep
    # every panel; q leaves the fewest pairs to evaluate
    cuts = np.arange(edges.size)
    skips = np.count_nonzero(n_skip[:, None] >= cuts, axis=0)
    pairs = thetas.size * (zetas.size - skips) + _PANEL_NODES * (edges.size - cuts) * skips
    q = int(np.argmin(pairs))
    # skipped entries: log k = -inf, so sq = 0, and k1/k = 0
    log_k = np.full((zetas.size, thetas.size), -np.inf)
    r1 = np.zeros_like(log_k)
    full, part = np.flatnonzero(n_skip < q), np.flatnonzero(n_skip >= q)
    kept = slice(_PANEL_NODES * q, None)
    log_k[full], r1[full] = quad_log_k(zetas[full], thetas, want_deriv=True)
    log_k[part, kept], r1[part, kept] = quad_log_k(zetas[part], thetas[kept], want_deriv=True)
    # S_0..S_3, _S_ROWS frequencies at a time: angular quadratures of
    # |k/k*|^2 times squared derivative ratios, scaled by powers of <zeta>.
    # Each row is summed alone, so the blocks change no value.  The powers
    # are taken in Python floats, as numpy's power can differ from C pow by
    # an ulp
    th4, th6 = thetas ** 4, thetas ** 6
    s_vals = np.empty((4, zetas.size))
    for j in range(0, zetas.size, _S_ROWS):
        rows = slice(j, j + _S_ROWS)
        ratios = dtheta_ratios_from_seed(zetas[rows, None], thetas, r1[rows], 3)
        sq = np.exp(2.0 * (log_k[rows] - log_star[rows]))
        s_vals[0, rows] = np.sum(weights * sq, axis=1)
        s_vals[1, rows] = np.sum(weights * (ratios[0] ** 2) * sq, axis=1)
        s_vals[2, rows] = np.sum(weights * (ratios[1] ** 2) * th4 * sq, axis=1)
        s_vals[3, rows] = np.sum(weights * (ratios[2] ** 2) * th6 * sq, axis=1)
    brackets = [math.sqrt(1.0 + z * z) for z in zetas.tolist()]
    s_vals *= np.array([(b, 1.0 / b, b ** -3, b ** -5) for b in brackets]).T

    s_sup = tuple(float(np.max(s_vals[m])) for m in range(4))
    s_argsup = tuple(float(zetas[int(np.argmax(s_vals[m]))]) for m in range(4))

    # plateau measured on the fixed lattice only: table frequencies densify
    # the suprema above but must not move the spread's sample points, or the
    # verdict would depend on grid resolution
    geo_mask = np.isin(zetas, geo)
    spreads = []
    for m in range(4):
        running = np.maximum.accumulate(s_vals[m][geo_mask])
        upper = running[zetas[geo_mask] >= zeta_max / 2.0]
        spreads.append(float((upper.max() - upper.min()) / upper.max()))
    plateau_spread = tuple(spreads)

    bessel_sup = float(np.max(bessel))
    bessel_weighted_sup = float(np.max(bessel * xs[None, :]))

    passed = (
        all(np.isfinite(s_sup))
        and max(plateau_spread) < PLATEAU_SPREAD_MAX
        and bessel_sup <= 1.0 + BESSEL_SLACK
        and bessel_weighted_sup <= 3.0 + BESSEL_SLACK
    )
    return KernelBoundsReport(
        zeta=zetas,
        s_values=s_vals,
        s_sup=s_sup,
        s_argsup=s_argsup,
        plateau_spread=plateau_spread,
        bessel_x=xs,
        bessel_integrals=bessel,
        bessel_sup=bessel_sup,
        bessel_weighted_sup=bessel_weighted_sup,
        passed=passed,
    )
