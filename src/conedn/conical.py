"""Conical Legendre functions and companions.

Evaluates k(zeta, theta) = P_{-1/2 + i zeta}(cos theta) (the real, positive
conical Legendre function), its theta-derivatives up to order four, the
half-degree Legendre pair P_{1/2} / P^1_{1/2} at argument -cos(theta), scaled
modified Bessel functions, the Gamma modulus products that enter derivative
recurrences, and the opening angle of the equilibrium cone (the Taylor angle,
root of P_{1/2}(-cos theta) = 0).

Evaluation strategy
-------------------
Ground truth is the finite-interval integral representation

    k(zeta, theta) = (2/pi) * integral_0^{pi/2}
                     cosh(zeta * phi(t)) / cos(phi(t)/2) dt,
    phi(t) = 2 * arcsin(sin(theta/2) * cos t),

the classical half-angle form with the endpoint square-root singularity
absorbed by the change of variables; the integrand is analytic on the closed
interval, so composite Gauss-Legendre panels converge geometrically.  This
quadrature is the only route to k, at every frequency: the uniform
large-frequency form k ~ I_0(zeta*theta) / sqrt(sinc theta) is still 0.2%
off at (zeta, theta) = (500, 3), so it serves only as a test oracle.
Only the two exponentials of cosh(zeta * phi) depend on zeta, so phi(t) and
cos(phi/2) are built once per rule and shared by all frequencies that use it.
Everything exponentially large is carried in log scale; ratios are
exponentials of log differences.

The m-th theta-derivative for m >= 2 comes from the differentiated Legendre
ODE in x = cos(theta),

    (1 - x^2) P^{(k+2)} = 2 (k+1) x P^{(k+1)} + (k(k+1) + zeta^2 + 1/4) P^{(k)},

seeded by the quadrature values of k and its first derivative, composed with
the chain rule for x = cos(theta).  This is algebraically identical to the
Bell-polynomial expansion in terms of associated functions and Gamma-modulus
ratios, while staying free of phase-convention pitfalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ive

from .errors import DomainError, EvaluationError

__all__ = [
    "ConeAngle",
    "conical_p",
    "conical_p_log",
    "conical_p_dtheta",
    "conical_dtheta_ratios",
    "quad_log_k",
    "dtheta_ratios_from_seed",
    "panel_rule",
    "gamma_half_abs2",
    "bessel_i_scaled",
    "bessel_i0_derivative_scaled",
    "bessel_form_ratio",
    "legendre_half",
    "taylor_angle",
]

_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)  # ~709.78

#: the hypergeometric and product series stop once a term falls below this
#: share of the sum
SERIES_TOL = 1e-14
#: term cap of those series
SERIES_MAX_TERMS = 400
#: quad_log_k stops once two successive refinements agree to this
QUAD_TOL = 1e-12


@dataclass(frozen=True)
class ConeAngle:
    """An opening angle theta_star strictly inside (0, pi)."""

    theta_star: float

    def __post_init__(self) -> None:
        if not (0.0 < self.theta_star < math.pi):
            raise DomainError(
                f"cone angle must lie in (0, pi), got {self.theta_star}")


def _check_theta(theta: float) -> None:
    if not (0.0 < theta < math.pi):
        raise DomainError(f"theta must lie in (0, pi), got {theta}")


def sinc(theta):
    """sin(theta)/theta, stable at 0."""
    return np.sinc(np.asarray(theta) / np.pi)


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(n)
    return x, w


_MAX_PANELS = 40


def panel_rule(length: float, width: float,
               n_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, length], nodes ascending.

    Panel edges halve from ``length`` toward 0 until the panel at 0 is no
    wider than ``width``, with at most 40 panels.  Cached by the edges, which
    many widths share: the returned arrays are read-only and shared between
    callers.
    """
    return _composite_rule(_panel_edges(length, width), n_per_panel)


def _panel_edges(length: float, width: float) -> tuple[float, ...]:
    edges = [length]
    while edges[-1] > width and len(edges) < _MAX_PANELS:
        edges.append(edges[-1] / 2)
    return tuple(edges)


@lru_cache(maxsize=256)
def _composite_rule(edges: tuple[float, ...],
                    n_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    edges = [0.0, *reversed(edges)]
    x, w = _gl_rule(n_per_panel)
    ts, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        ts.append(a + half * (x + 1.0))
        ws.append(half * w)
    t, wt = np.concatenate(ts), np.concatenate(ws)
    t.setflags(write=False)
    wt.setflags(write=False)
    return t, wt


#: points per panel of the successive refinements of quad_log_k
_QUAD_LEVELS = (16, 32, 64, 96)
#: quad_log_k evaluates pending frequencies in blocks of about this many
#: tensor elements, at least one frequency a block
_QUAD_BLOCK = 2**13


@dataclass(frozen=True)
class _Geometry:
    """The zeta-independent parts of the integrands on the tensor grid
    (theta_i, t_j): phi = 2 arcsin(sin(theta/2) cos t) enters through
    phi - theta and -(phi + theta), and the derivative through
    dphi/dtheta and tan(phi/2)."""

    d_minus: np.ndarray
    d_plus: np.ndarray
    cos_half: np.ndarray
    dphi: np.ndarray | None
    tan_half: np.ndarray | None

    @classmethod
    def build(cls, thetas: np.ndarray, t: np.ndarray, want_deriv: bool) -> _Geometry:
        th = thetas[:, None]
        ct = np.cos(t)[None, :]
        s = np.sin(th / 2.0) * ct                    # sin(phi/2)
        phi = 2.0 * np.arcsin(s)
        cos_half = np.sqrt(1.0 - s * s)              # cos(phi/2) > 0 on the range
        d_minus = phi - th
        phi += th
        d_plus = np.negative(phi, out=phi)
        if not want_deriv:
            return cls(d_minus, d_plus, cos_half, None, None)
        dphi = np.cos(th / 2.0) * ct
        dphi /= cos_half
        s /= cos_half                                # tan(phi/2)
        return cls(d_minus, d_plus, cos_half, dphi, s)

    def integrals(self, az: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(2/pi) times the integrals of the scaled integrands of k and
        dk/dtheta, one row per frequency of ``az`` >= 0; integrands are
        scaled by exp(-az theta).  The steps run in place, on the operands
        and in the order of the expressions in the comments."""
        a = az[:, None, None]
        # cosh(zeta phi) e^{-az th} = (e^{az(phi-th)} + e^{-az(phi+th)})/2
        ep = a * self.d_minus
        np.exp(ep, out=ep)
        em = a * self.d_plus
        np.exp(em, out=em)
        cosh_sc = ep + em
        cosh_sc *= 0.5
        # f_k = cosh_sc / cos_half
        if self.dphi is None:
            f_k = np.divide(cosh_sc, self.cos_half, out=ep)
            return (2.0 / math.pi) * (f_k @ w), None
        # d/dtheta of cosh(zeta phi)/cos(phi/2):
        #   dphi/dtheta * [ az sinh(az phi) + cosh(az phi) tan(phi/2)/2 ] / cos(phi/2)
        # f_d = dphi * (az * (0.5 * (ep - em)) + 0.5 * cosh_sc * tan_half) / cos_half
        f_d = np.subtract(ep, em, out=ep)
        f_k = np.divide(cosh_sc, self.cos_half, out=em)
        val_k = (2.0 / math.pi) * (f_k @ w)
        f_d *= 0.5
        f_d *= a
        cosh_sc *= 0.5
        cosh_sc *= self.tan_half
        f_d += cosh_sc
        f_d *= self.dphi
        f_d /= self.cos_half
        return val_k, (2.0 / math.pi) * (f_d @ w)


def _residuals(val_k, val_d, prev_k, prev_d) -> np.ndarray:
    """Per row: the largest change between two refinements, relative to the
    value (and, for the derivative, to max(|k|, |k1|))."""
    res = np.max(np.abs(val_k - prev_k) / np.abs(val_k), axis=1)
    if val_d is not None:
        scale = np.maximum(np.abs(val_d), np.abs(val_k))
        res_d = np.max(np.abs(val_d - prev_d) / scale, axis=1)
        res = np.where(res_d > res, res_d, res)  # a NaN res_d does not count
    return res


def quad_log_k(zeta, thetas: np.ndarray,
               want_deriv: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """log k(zeta, theta) by quadrature, vectorized over the array ``thetas``
    and over the frequencies ``zeta`` (a scalar or a 1-d array).

    Returns (log k, k1/k) where k1 = dk/dtheta; the ratio slot is None when
    the derivative was not requested.  A scalar ``zeta`` gives 1-d arrays
    over ``thetas``, an array gives arrays of shape (zeta.size, thetas.size)
    whose row i is what ``zeta[i]`` alone gives.

    For each frequency, panels halve toward t = 0 until the first one
    resolves the integrand's concentration scale
    ~ 1/sqrt(1 + |zeta| max(theta)); the points per panel grow through
    16, 32, 64, 96 until two successive values agree to ``QUAD_TOL``, and
    that frequency stops there.  Frequencies with the same panel edges
    share one rule per level, and the zeta-independent part of the
    integrand is built once per rule: each frequency costs only its two
    exponentials.  Raises :class:`EvaluationError` naming the first
    frequency that did not converge.
    """
    thetas = np.asarray(thetas, dtype=float)
    zetas = np.atleast_1d(np.asarray(zeta, dtype=float))
    th_max = float(np.max(thetas))
    groups: dict[tuple[float, ...], list[int]] = {}
    for i, z in enumerate(zetas.tolist()):
        width = 1.0 / math.sqrt(1.0 + round(abs(z) * th_max, 6))
        groups.setdefault(_panel_edges(math.pi / 2, width), []).append(i)

    az = np.abs(zetas)
    val_k = np.empty((zetas.size, thetas.size))
    val_d = np.empty_like(val_k) if want_deriv else None
    failed: dict[int, float] = {}
    for edges, rows in groups.items():
        pending = np.array(rows)
        for level, n_per in enumerate(_QUAD_LEVELS):
            # rows still pending hold the previous level's values
            prev_k = val_k[pending] if level else None
            prev_d = val_d[pending] if level and want_deriv else None
            res = np.empty(pending.size)
            t, w = _composite_rule(edges, n_per)
            geom = _Geometry.build(thetas, t, want_deriv)
            block = max(1, _QUAD_BLOCK // geom.cos_half.size)
            for j in range(0, pending.size, block):
                rows_j, idx = slice(j, j + block), pending[j:j + block]
                k_j, d_j = geom.integrals(az[idx], w)
                val_k[idx] = k_j
                if want_deriv:
                    val_d[idx] = d_j
                if level:
                    res[rows_j] = _residuals(k_j, d_j, prev_k[rows_j],
                                             prev_d[rows_j] if want_deriv else None)
            del geom                 # not alive while the next level's is built
            if level:
                keep = ~(res <= QUAD_TOL)                # NaN keeps refining
                pending, res = pending[keep], res[keep]
                if not pending.size:
                    break
        else:
            failed.update(zip(pending.tolist(), res.tolist()))
    if failed:
        i = min(failed)
        raise EvaluationError(
            f"conical quadrature did not converge at zeta={zetas[i]:.6g}: "
            f"achieved residual {failed[i]:.3e} > tol {QUAD_TOL:.1e}")

    # log k = az theta + log(val_k) and k1/k = val_d/val_k, in place
    ratio = np.divide(val_d, val_k, out=val_d) if want_deriv else None
    log_k = np.log(val_k, out=val_k)
    log_k += az[:, None] * thetas
    if np.ndim(zeta) == 0:
        return log_k[0], (ratio[0] if want_deriv else None)
    return log_k, ratio


# ---------------------------------------------------------------------------
# public scalar evaluations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=200_000)
def _k_and_ratio_cached(zeta: float, theta: float) -> tuple[float, float]:
    """(log k, k1/k) at one point.  Cached; safe for concurrent use (pure
    computation, idempotent inserts)."""
    log_k, ratio = quad_log_k(zeta, np.array([theta]), want_deriv=True)
    return float(log_k[0]), float(ratio[0])


def conical_p_log(zeta: float, theta: float) -> float:
    """log of k(zeta, theta); never overflows on the supported range."""
    _check_theta(theta)
    return _k_and_ratio_cached(abs(float(zeta)), float(theta))[0]


def conical_p(zeta: float, theta: float) -> float:
    """The conical Legendre function k(zeta, theta) > 0, even in zeta.

    Grows like exp(|zeta| theta); raises an evaluation error once the value
    exceeds double range (use :func:`conical_p_log` there).
    """
    log_k = conical_p_log(zeta, theta)
    if log_k > _LOG_DOUBLE_MAX:
        raise EvaluationError(
            f"k(zeta={zeta:.6g}, theta={theta:.6g}) exceeds double range "
            f"(log value {log_k:.1f}); use conical_p_log")
    return math.exp(log_k)


def dtheta_ratios_from_seed(zeta: float, theta, k1_over_k, m: int):
    """Ratios d^j k / dtheta^j / k for j = 1..m from the ODE recursion in
    x = cos(theta), seeded by the first-derivative ratio; ``theta`` and
    ``k1_over_k`` may be arrays of one shape."""
    x = np.cos(theta)
    s = np.sin(theta)
    s2 = s * s
    c = zeta * zeta + 0.25
    # P[k] = (d/dx)^k P / P at x = cos(theta)
    P = [np.ones_like(x), -np.asarray(k1_over_k) / s]
    for k in range(0, max(0, m - 1)):
        P.append((2.0 * (k + 1) * x * P[k + 1] + (c + k * (k + 1)) * P[k]) / s2)
    out = [s * 0 + k1_over_k]                     # d1 = -s * P1 = k1/k
    if m >= 2:
        out.append(-x * P[1] + s2 * P[2])
    if m >= 3:
        out.append(s * P[1] + 3.0 * s * x * P[2] - s * s2 * P[3])
    if m >= 4:
        out.append(x * P[1] + (3.0 * x * x - 4.0 * s2) * P[2]
                   - 6.0 * s2 * x * P[3] + s2 * s2 * P[4])
    return out


def conical_dtheta_ratios(zeta: float, theta: float, m: int) -> list[float]:
    """[d^j k/dtheta^j / k for j=1..m]; scale-free (safe at large zeta)."""
    _check_theta(theta)
    if m not in (1, 2, 3, 4):
        raise DomainError(f"derivative order must be in 1..4, got {m}")
    _, r1 = _k_and_ratio_cached(abs(float(zeta)), float(theta))
    ratios = dtheta_ratios_from_seed(abs(float(zeta)), float(theta), r1, m)
    return [float(r) for r in ratios]


def conical_p_dtheta(zeta: float, theta: float, m: int) -> float:
    """m-th theta-derivative of k(zeta, theta), m in {1,2,3,4}.

    The first derivative is positive on (0, pi); for m >= 2 the value comes
    from the differentiated-ODE recursion seeded by the quadrature values.
    """
    ratios = conical_dtheta_ratios(zeta, theta, m)
    return ratios[m - 1] * conical_p(zeta, theta)


# ---------------------------------------------------------------------------
# Gamma modulus and Bessel helpers
# ---------------------------------------------------------------------------

def gamma_half_abs2(m: int, zeta: float) -> float:
    """|Gamma(1/2 + m + i zeta)|^2 = pi/cosh(pi zeta) * prod_{k=1}^m ((k-1/2)^2 + zeta^2)."""
    if m < 0:
        raise DomainError(f"order m must be nonnegative, got {m}")
    x = math.pi * zeta
    # log cosh, overflow-safe
    log_cosh = abs(x) + math.log1p(math.exp(-2.0 * abs(x))) - math.log(2.0)
    log_val = math.log(math.pi) - log_cosh
    for k in range(1, m + 1):
        log_val += math.log((k - 0.5) ** 2 + zeta * zeta)
    return math.exp(log_val)


def bessel_i_scaled(m: int, x: float) -> float:
    """e^{-x} I_m(x) for m in 0..4, x >= 0."""
    if m not in (0, 1, 2, 3, 4):
        raise DomainError(f"Bessel order must be in 0..4, got {m}")
    if x < 0:
        raise DomainError(f"argument must be nonnegative, got {x}")
    return float(ive(m, x))


# I0 derivatives as combinations of I_m (from I_m' = (I_{m-1}+I_{m+1})/2):
#   I0'    = I1
#   I0''   = (I0 + I2)/2
#   I0'''  = (3 I1 + I3)/4
#   I0'''' = (3 I0 + 4 I2 + I4)/8
_I0_DERIV_COMBO = {
    0: {0: 1.0},
    1: {1: 1.0},
    2: {0: 0.5, 2: 0.5},
    3: {1: 0.75, 3: 0.25},
    4: {0: 0.375, 2: 0.5, 4: 0.125},
}


def bessel_i0_derivative_scaled(k: int, x):
    """e^{-x} * (d/dx)^k I_0(x) for k in 0..4; a float for scalar x, an
    array of the same shape for array x."""
    if k not in _I0_DERIV_COMBO:
        raise DomainError(f"derivative order must be in 0..4, got {k}")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0):
        raise DomainError(f"argument must be nonnegative, got {np.min(xs)}")
    val = sum(c * ive(m, xs) for m, c in _I0_DERIV_COMBO[k].items())
    return float(val) if val.ndim == 0 else val


def bessel_form_ratio(zeta: float, theta: float) -> float:
    """k(zeta, theta) over its uniform large-frequency form
    I_0(zeta theta) / sqrt(sinc theta); tends to 1 as zeta grows."""
    _check_theta(theta)
    x = abs(zeta) * theta
    log_i0 = math.log(bessel_i_scaled(0, x)) + x
    log_k, _ = quad_log_k(zeta, np.array([theta]))
    return math.exp(float(log_k[0]) + 0.5 * math.log(float(sinc(theta))) - log_i0)


# ---------------------------------------------------------------------------
# half-degree Legendre pair and the Taylor angle
# ---------------------------------------------------------------------------

def legendre_half(theta: float) -> tuple[float, float]:
    """(P_{1/2}(-cos theta), P^1_{1/2}(-cos theta)) by hypergeometric series.

    P_{1/2}(x) = 2F1(-1/2, 3/2; 1; (1-x)/2), so with x = -cos(theta) the
    argument is z = cos^2(theta/2).  The associated value is the plain
    derivative form P^1 = sin(theta) * dP/dx (positive on (0, pi)); the
    sign convention carries no Condon-Shortley factor.
    """
    _check_theta(theta)
    z = math.cos(theta / 2.0) ** 2
    # 2F1(-1/2, 3/2; 1; z) and (3/8) 2F1(1/2, 5/2; 2; z), summed together
    term_p = 1.0
    term_d = 1.0
    P = term_p
    D = term_d
    converged = False
    for n in range(SERIES_MAX_TERMS):
        fac_p = ((n - 0.5) * (n + 1.5)) / ((n + 1.0) * (n + 1.0))
        fac_d = ((n + 0.5) * (n + 2.5)) / ((n + 2.0) * (n + 1.0))
        term_p *= fac_p * z
        term_d *= fac_d * z
        P += term_p
        D += term_d
        if abs(term_p) < SERIES_TOL * max(1.0, abs(P)) and \
           abs(term_d) < SERIES_TOL * max(1.0, abs(D)):
            converged = True
            break
    if not converged:
        raise EvaluationError(
            f"half-degree Legendre series not converged at theta={theta:.6g} "
            f"(argument z={z:.6f} too close to 1); residual term {abs(term_p):.3e}")
    dPdx = 0.375 * D
    return P, math.sin(theta) * dPdx


#: cap of Newton's iteration for the Taylor angle, which takes 3 steps
_NEWTON_MAX_STEPS = 50


def taylor_angle(tol: float = 1e-10) -> ConeAngle:
    """Opening angle of the equilibrium cone: the root of
    P_{1/2}(-cos theta) = 0 in the bracket (0.2 pi, 0.35 pi).

    Newton's iteration from the middle of the bracket, with the derivative
    d/dtheta P_{1/2}(-cos theta) = P^1_{1/2}(-cos theta) that
    :func:`legendre_half` returns alongside the value; it stops once a step
    is at most ``tol``.
    """
    if not (0.0 < tol <= 1e-3):
        raise DomainError(f"tolerance must lie in (0, 1e-3], got {tol}")
    lo, hi = 0.2 * math.pi, 0.35 * math.pi
    theta = 0.5 * (lo + hi)
    for _ in range(_NEWTON_MAX_STEPS):
        value, slope = legendre_half(theta)
        step = value / slope
        theta -= step
        if not lo < theta < hi:
            raise EvaluationError(
                f"Newton iterate {theta:.6g} for P_{{1/2}}(-cos theta) = 0 left "
                f"the bracket ({lo:.4f}, {hi:.4f})")
        if abs(step) <= tol:
            return ConeAngle(theta)
    raise EvaluationError(
        f"Newton iteration for the Taylor angle took {_NEWTON_MAX_STEPS} steps "
        f"without a step below {tol:.1e}")
