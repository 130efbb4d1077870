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
at once (four calls for a symbol table, an extension and a bounds check).
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
    quad_log_k,
    sinh_rule,
)
from .errors import DomainError
from .grid import GridFn, SigmaGrid, StripField, l2_norm, multiplier_values

__all__ = [
    "SymbolTable",
    "KernelBoundsReport",
    "build_symbol_table",
    "dn_flat",
    "exact_cone_gap",
    "extend_flat",
    "verify_kernel_bounds",
]

@dataclass(frozen=True, eq=False)
class SymbolTable:
    """First-order DN symbol g over the grid frequencies (FFT ordering),
    and log k(zeta, theta*) over the nonnegative ones (``grid.rfft_zeta``)."""

    grid: SigmaGrid
    theta_star: ConeAngle
    g: np.ndarray = field(repr=False)
    log_k: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("g", "log_k"):
            values = np.array(getattr(self, name), dtype=float, copy=True)
            values.setflags(write=False)
            object.__setattr__(self, name, values)


def build_symbol_table(grid: SigmaGrid, theta_star: ConeAngle) -> SymbolTable:
    """Evaluate g(zeta_k) = k1(zeta_k, theta*)/k(zeta_k, theta*) on the grid.

    Even in zeta by construction (evaluated at |zeta_k|); strictly positive.
    """
    log_k, ratio = quad_log_k(grid.rfft_zeta, np.array([theta_star.theta_star]), True)
    half = ratio[:, 0]
    return SymbolTable(grid=grid, theta_star=theta_star,
                       g=np.concatenate([half, half[-2:0:-1]]), log_k=log_k[:, 0])


def dn_flat(phi: GridFn, table: SymbolTable) -> GridFn:
    """Apply the exact-cone DN multiplier g to the boundary data."""
    if phi.grid != table.grid:
        raise DomainError("grid mismatch between data and symbol table")
    half = table.g[: phi.grid.rfft_zeta.size]
    return GridFn(phi.grid, multiplier_values(phi.grid, phi.values, half))


def exact_cone_gap(phi: GridFn, g_of_phi: GridFn, theta_star: ConeAngle) -> float:
    """Relative L2 gap |g_of_phi - dn_flat(phi)| / |phi| between a DN value
    of phi and the exact-cone multiplier at theta*."""
    if g_of_phi.grid != phi.grid:
        raise DomainError("grid mismatch between data and DN value")
    ref = dn_flat(phi, build_symbol_table(phi.grid, theta_star))
    return l2_norm(GridFn(phi.grid, g_of_phi.values - ref.values)) / l2_norm(phi)


#: extend_flat accepts stations up to theta* plus this, so that a last
#: station computed as theta* times a fraction that rounds up stays in
STATION_SLACK = 1e-15


def extend_flat(phi: GridFn, theta_samples: np.ndarray, table: SymbolTable) -> StripField:
    """Harmonic extension of phi into the cone, sampled on angular stations.

    Column i carries the field at theta_samples[i]: in transform space it
    is phihat * k(zeta, theta_i)/k(zeta, theta*).  The field's stations are
    the fractions theta_i/theta*.
    """
    if phi.grid != table.grid:
        raise DomainError("grid mismatch between data and symbol table")
    th_star = table.theta_star.theta_star
    thetas = np.asarray(theta_samples, dtype=float)
    if thetas.ndim != 1 or thetas.size == 0:
        raise DomainError("theta_samples must be a nonempty 1-d array")
    if not np.all((thetas > 0.0) & (thetas <= th_star + STATION_SLACK)):
        raise DomainError("theta_samples must lie in (0, theta*]")

    grid = phi.grid
    # kernel ratio k(zeta, theta)/k(zeta, theta*), one row per transform mode
    log_rows, _ = quad_log_k(grid.rfft_zeta, thetas)
    ratios = np.exp(log_rows - table.log_k[:, None])
    values = multiplier_values(grid, phi.values[:, None], ratios)
    return StripField(grid, thetas / th_star, values)


# ---------------------------------------------------------------------------
# kernel bound verification
# ---------------------------------------------------------------------------

#: the running suprema of S_0..S_3 count as a plateau when they spread by
#: less than this share over the upper half of the zeta range
PLATEAU_SPREAD_MAX = 0.05
#: rounding slack on the Bessel ratio bounds sup <= 1 and sup x * (.) <= 3
BESSEL_SLACK = 1e-9
#: S_0..S_3 depend on x = zeta theta*, so by default their zeta lattice ends
#: at X_MAX / theta*; at 200 every plateau spread measured on (0, pi) lies
#: more than 2 times below PLATEAU_SPREAD_MAX
X_MAX = 200.0
#: the kernel ratios of S_0..S_3 stay finite up to zeta_max * theta* = X_GUARD
X_GUARD = 500.0
#: Gauss-Legendre nodes per s-panel of the S_0..S_3 rule (S within 1e-13
#: of a 32-node halving rule; 12 nodes are 2.6e-10 off)
_PANEL_NODES = 16
#: the lowest frequency of the geometric zeta lattice of S_0..S_3
_LATTICE_START = 0.05


@dataclass(frozen=True, eq=False)
class KernelBoundsReport:
    """Suprema of the kernel ratio integrals and the Bessel ratio integrals."""

    zeta: np.ndarray
    s_values: np.ndarray            # shape (4, n_zeta): S0, S1, S2, S3
    s_sup: tuple[float, float, float, float]
    s_argsup: tuple[float, float, float, float]
    plateau_spread: tuple[float, float, float, float]
    bessel_sup: float               # sup over k, x of the plain integral
    bessel_weighted_sup: float      # sup over k, x of x * integral
    passed: bool


@lru_cache(maxsize=1)
def _bessel_ratio_integrals() -> tuple[np.ndarray, np.ndarray]:
    """The Bessel derivative-ratio integrals
    int_0^1 (I0^{(k)}(y x) / I0(x))^2 dy for k = 0..4 at 200 points x in
    [0, 50], as (xs, integrals of shape (5, 200)).  With s = y x an integral
    is int_0^x I0^{(k)}(s)^2 ds / (x I0(x)^2), so the 200 values are prefix
    sums of one integral over [0, 50], taken by the 8-point panel of
    :func:`sinh_rule` on [0, 1] between consecutive x; at x = 0 the value
    is the limit I0^{(k)}(0)^2.  They do not depend on the cone, so they
    are computed once per process; both arrays are read-only and shared
    between callers."""
    xs = np.linspace(0.0, 50.0, 200)
    # one panel between consecutive x, scaled to its width
    t, jac, w, _ = sinh_rule(1.0, 1.0, 8)
    wt = jac * w
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


def _kernel_integrals(zetas: np.ndarray, thetas: np.ndarray, weights: np.ndarray,
                      th_star: float) -> np.ndarray:
    """S_0..S_3 at the frequencies ``zetas``, shape (4, zetas.size): angular
    quadratures of (k/k*)^2 times squared derivative ratios, scaled by
    powers of <zeta> = sqrt(1 + zeta^2).  One quadrature call takes every
    frequency over the rule, one more the values k* at theta*."""
    log_k, r1 = quad_log_k(zetas, thetas, want_deriv=True)
    log_star, _ = quad_log_k(zetas, np.array([th_star]))
    ratios = dtheta_ratios_from_seed(zetas[:, None], thetas, r1)
    sq = np.exp(2.0 * (log_k - log_star))
    s_vals = np.stack([
        np.sum(weights * sq, axis=1),
        np.sum(weights * (ratios[0] ** 2) * sq, axis=1),
        np.sum(weights * (ratios[1] ** 2) * (thetas ** 4) * sq, axis=1),
        np.sum(weights * (ratios[2] ** 2) * (thetas ** 6) * sq, axis=1),
    ])
    # the powers are taken in Python floats, as numpy's power can differ
    # from C pow by an ulp
    brackets = [math.sqrt(1.0 + z * z) for z in zetas.tolist()]
    return s_vals * np.array([(b, 1.0 / b, b ** -3, b ** -5) for b in brackets]).T


def verify_kernel_bounds(table: SymbolTable,
                         zeta_max: float | None = None) -> KernelBoundsReport:
    """Evaluate the kernel-ratio integrals S_0..S_3 over [0, zeta_max] and the
    Bessel derivative-ratio integrals over x in [0, 50]; report suprema,
    arg-suprema, and plateau behavior of the running suprema.

    S_0..S_3 depend on x = zeta theta*, not on the sigma grid, so they are
    sampled at zeta = 0 and 64 geometric points from 0.05 to ``zeta_max``,
    which defaults to X_MAX / theta*, whatever the grid of ``table``.  Their
    angular rule is :func:`sinh_rule` on [0, theta*] in the distance
    t = theta* - theta, of map width min(1/(2 zeta_max), pi - theta*) and
    16 Gauss-Legendre nodes a panel: the first term is the scale of
    (k/k*)^2 ~ e^{2 zeta (theta - theta*)} at the top of the lattice, the
    second the distance to the kernel's singularity at pi, and the map
    spreads both over equal panels in asinh(t/w).  ``zeta_max`` must lie
    above 0.05, the start of the lattice, with zeta_max * theta* at most
    X_GUARD = 500.  The plateau spread is that of the running suprema over
    the geometric lattice on [zeta_max/2, zeta_max].
    """
    th_star = table.theta_star.theta_star
    if zeta_max is None:
        zeta_max = X_MAX / th_star
    if not (_LATTICE_START < zeta_max and zeta_max * th_star <= X_GUARD):
        raise DomainError(
            f"zeta_max must lie in ({_LATTICE_START}, {X_GUARD:g}/theta*], above the "
            f"start of the zeta lattice, got {zeta_max}")
    # built before the kernel arrays below, so that its temporaries are
    # freed before those arrays are allocated, not held on top of them
    xs, bessel = _bessel_ratio_integrals()

    geo = np.geomspace(_LATTICE_START, zeta_max, 64)
    zetas = np.concatenate([[0.0], geo])
    t, jac, w, _ = sinh_rule(th_star, min(0.5 / zeta_max, math.pi - th_star), _PANEL_NODES)
    s_vals = _kernel_integrals(zetas, th_star - t, jac * w, th_star)

    s_sup = tuple(float(np.max(s_vals[m])) for m in range(4))
    s_argsup = tuple(float(zetas[int(np.argmax(s_vals[m]))]) for m in range(4))

    running = np.maximum.accumulate(s_vals[:, 1:], axis=1)[:, geo >= zeta_max / 2.0]
    plateau_spread = tuple(float((u.max() - u.min()) / u.max()) for u in running)

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
        bessel_sup=bessel_sup,
        bessel_weighted_sup=bessel_weighted_sup,
        passed=passed,
    )
