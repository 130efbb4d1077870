"""Conical Legendre functions and companions.

Evaluates k(zeta, theta) = P_{-1/2 + i zeta}(cos theta) (the real, positive
conical Legendre function), its theta-derivatives up to order three, the
half-degree Legendre pair P_{1/2} / P^1_{1/2} at argument -cos(theta), scaled
modified Bessel functions, and the opening angle of the equilibrium cone
(the Taylor angle, root of P_{1/2}(-cos theta) = 0).

k has one route, for arrays of frequencies and angles alike:
:func:`quad_log_k` gives log k and the ratio k1/k = (dk/dtheta)/k, and
:func:`dtheta_ratios_from_seed` the ratios of the higher derivatives from
that ratio.  A derivative is its ratio times exp(log k).

Evaluation strategy
-------------------
Ground truth is the finite-interval integral representation

    k(zeta, theta) = (2/pi) * integral_0^{pi/2}
                     cosh(zeta * phi(t)) / cos(phi(t)/2) dt,
    phi(t) = 2 * arcsin(sin(theta/2) * cos t),

the classical half-angle form with the endpoint square-root singularity
absorbed by the change of variables; the integrand is analytic on the closed
interval, so Gauss-Legendre panels converge geometrically.  It has one peak
at t = 0 and, toward theta = pi, a near-singularity of 1/cos(phi/2) about
cos(theta/2) from it.  The rule maps t = w sinh s, with w set by the peak's
e-folding width and at most cos(theta/2), and takes equal panels in s, over
which the map spreads both scales (Johnston & Elliott, IJNME 62, 2005).  A
frequency refines through 24, 32, 64 and 96 points per panel, and each
level accepts it by one test: the level's own top Legendre coefficients in
s, squared, meet QUAD_TOL.  :func:`quad_log_k` states the rule and why the
test holds.  Nearly every frequency stops at 24 points.  This
quadrature is the only route to k, at every frequency: the uniform
large-frequency form k ~ I_0(zeta*theta) / sqrt(sinc theta) is still 0.2%
off at (zeta, theta) = (500, 3), so it serves only as a test oracle.
Only the two exponentials of cosh(zeta * phi) depend on zeta, so phi(t) and
(dt/ds)/cos(phi/2) are built once per rule and shared by all frequencies
that use it, and so are the work buffers the per-frequency arithmetic runs
in.  The frequencies of a rule run in blocks of about 2^15 tensor elements
(14 to 42 frequencies of a 32-angle extension, 455 to 1365 of a symbol
table), so a block's fixed cost of numpy calls is small next to its arithmetic while its
three buffers stay at 768 KB; blocks of 2^13 and 2^17 elements both
measured slower.  The exact factors 1/2 and 1/4 of the integrands sit in
the weights, in tan(phi/2) and in |zeta|, which changes no value.
Frequencies are sorted onto their rules by one comparison of their widths
with the halvings of pi/2, and the convergence test of a refinement level
takes all its frequencies at once.  The rules come from :func:`sinh_rule`,
the package's one rule builder, which also gives :mod:`conedn.flat` the
angular rule of the kernel integrals S_0..S_3 (a peak at theta*, the
kernel's singularity at pi beyond it) and the panel of its Bessel table.
Everything exponentially large is carried in log scale; ratios are
exponentials of log differences.  Toward theta = pi, cos(phi/2) and
phi - theta are taken in forms that do not cancel, and so is t1, so the
quadrature converges close to pi; how close is stated in :func:`quad_log_k`.

The second route is the hypergeometric series of :func:`legendre_dtheta`
(DLMF 14.3.1), for m^2 of either sign: at m^2 = -1 it gives the half-degree
pair and so the Taylor angle, and for real m it checks the graded-expansion
multipliers up to the frequencies where it overflows.

The m-th theta-derivative for m >= 2 comes from the differentiated Legendre
ODE in x = cos(theta),

    (1 - x^2) P^{(k+2)} = 2 (k+1) x P^{(k+1)} + (k(k+1) + zeta^2 + 1/4) P^{(k)},

seeded by the quadrature values of k and its first derivative, composed with
the chain rule for x = cos(theta).  This is algebraically identical to the
Bell-polynomial expansion in terms of associated functions, while staying
free of phase-convention pitfalls.

The scaled modified Bessel functions e^{-x} I_m(x), m = 0..4, which the
kernel bounds compare k with, are computed here too, from numpy alone.  Up
to x = BESSEL_SERIES_MAX they sum the power series
sum_j (x/2)^{2j+m} / (j! (j+m)!), all of whose terms are positive, so the
sum keeps its relative accuracy for every m and is exact at 0.  Above it
they use the integral (Abramowitz & Stegun 9.6.19)

    e^{-x} I_m(x) = (1/pi) * integral_0^pi e^{-2x sin^2(t/2)} cos(m t) dt,

written with -2 sin^2(t/2) for cos t - 1, since the plain difference loses
relative accuracy at large x.  The integrand is periodic and analytic, so
the midpoint rule converges geometrically (Trefethen & Weideman, SIAM
Review 56, 2014); its n = 32 + 8 * ceil(sqrt(x)) nodes depend on the element
alone, so an array call gives, element by element, what scalar calls give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, EvaluationError

__all__ = [
    "ConeAngle",
    "quad_log_k",
    "dtheta_ratios_from_seed",
    "sinh_rule",
    "bessel_i0_derivative_scaled",
    "bessel_form_ratio",
    "legendre_dtheta",
    "legendre_half",
    "taylor_angle",
]

#: the hypergeometric series stops once every latest term is at most this
#: share of max(1, |sum|)
SERIES_TOL = 1e-14
#: term cap of that series
SERIES_MAX_TERMS = 400
#: terms of that series summed by one set of array operations
_SERIES_BLOCK = 32
#: quad_log_k accepts a level's value once its squared error estimate is at
#: most this
QUAD_TOL = 1e-12
#: e^{-x} I_m(x) sums its power series up to this x, the midpoint rule above
BESSEL_SERIES_MAX = 12.0


@dataclass(frozen=True)
class ConeAngle:
    """An opening angle theta_star strictly inside (0, pi)."""

    theta_star: float

    def __post_init__(self) -> None:
        if not (0.0 < self.theta_star < math.pi):
            raise DomainError(
                f"cone angle must lie in (0, pi), got {self.theta_star}")


def _check_theta(theta) -> None:
    th = np.asarray(theta, dtype=float)
    bad = ~((th > 0.0) & (th < math.pi))
    if np.any(bad):
        raise DomainError(f"theta must lie in (0, pi), got {th[bad].flat[0]}")


def sinc(theta):
    """sin(theta)/theta, stable at 0."""
    return np.sinc(np.asarray(theta) / np.pi)


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    # numpy.polynomial is imported by the first rule built, not with the
    # package: the routes that never integrate k do not load it
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    return x, w


@lru_cache(maxsize=8)
def _gl_tail(n: int) -> np.ndarray:
    """The columns that take the top two discrete Legendre coefficients
    c_j = (2j+1)/2 sum_i w_i P_j(x_i) f(x_i), j = n - 2 and n - 1, from an
    integrand's values f at the nodes of the n-point rule, shape (n, 2),
    with P_j from the recurrence (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}.
    Read-only and shared between callers."""
    x, w = _gl_rule(n)
    p_prev, p = np.ones_like(x), x
    for j in range(1, n - 1):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    tail = np.stack([(n - 1.5) * w * p_prev, (n - 0.5) * w * p], axis=1)
    tail.setflags(write=False)
    return tail


#: points per panel of the successive refinements of quad_log_k
_QUAD_LEVELS = (24, 32, 64, 96)
#: quad_log_k's map width is this many times its group's narrowest halving,
#: at most cos(max(theta)/2)
_MAP_WIDTH = 1.5
#: quad_log_k's panels in s = asinh(t/w) are at most this long
_MAP_PANEL = 2.0
#: quad_log_k groups frequencies by the halvings (pi/2)/2^q, q at most this
_MAX_HALVINGS = 46
#: quad_log_k refuses |zeta| max(theta) above this, 1/w^2 - 1 at
#: w = (pi/2)/2^39: the reach of an earlier rule whose width was
#: 1/sqrt(1 + |zeta| theta) and whose narrowest panel was that w.  It stays
#: there so that no frequency at its edge moves; up to it the e-folding
#: width t1 at 3.1415, 3.4e-14 at the reach, lies above the narrowest group
#: width (pi/2)/2^46 = 2.2e-14
_QUAD_REACH = (2.0**39 / (math.pi / 2)) ** 2 - 1.0
#: quad_log_k evaluates pending frequencies in blocks of about this many
#: tensor elements, at least one frequency a block; each work buffer holds
#: one block and serves every block of its panel group and level
_QUAD_BLOCK = 2**15


@lru_cache(maxsize=64)
def sinh_rule(length: float, width: float, n_per_panel: int) -> tuple[np.ndarray, ...]:
    """Gauss-Legendre rule on [0, length] in s = asinh(t/width): [0, S],
    S = asinh(length/width), in ceil(S/_MAP_PANEL) equal panels of
    ``n_per_panel`` points.  Returns the nodes t = width sinh s, ascending
    inside (0, length), the Jacobian width cosh s, the weights h w_i in s
    and the panels' half-widths h, read-only and shared between callers;
    the weights in t are the Jacobian times the weights in s."""
    s_max = math.asinh(length / width)
    m = math.ceil(s_max / _MAP_PANEL)
    h = 0.5 * s_max / m
    x, w = _gl_rule(n_per_panel)
    s = (h * (np.arange(1, 2 * m, 2)[:, None] + x)).ravel()
    rule = (width * np.sinh(s), width * np.cosh(s), np.tile(h * w, m), np.full(m, h))
    for a in rule:
        a.setflags(write=False)
    return rule


@dataclass(frozen=True)
class _Geometry:
    """The zeta-independent parts of the integrands on the tensor grid
    (theta_i, s_j) of a rule of :func:`sinh_rule`: phi = 2 arcsin(sin(theta/2)
    cos t) enters through phi - theta and -(phi + theta), the Jacobian
    dt/ds = w cosh s through ``jac_sec`` = (dt/ds)/cos(phi/2), and the
    derivative through dphi/dtheta (dt/ds)/cos(phi/2) and tan(phi/2)/4.
    ``w`` holds the rule's weights in s and ``w_half`` half of them;
    ``work`` holds the work buffers of :meth:`integrals`, ``rows``
    frequencies deep (two for k alone, three with the derivative).
    ``tail`` holds the columns of :func:`_gl_tail` for the points per panel
    and the panels' half-widths in s, from which :meth:`integrals`
    estimates its errors."""

    d_minus: np.ndarray
    d_plus: np.ndarray
    jac_sec: np.ndarray
    dphi_jac: np.ndarray | None
    tan_quarter: np.ndarray | None
    w: np.ndarray
    w_half: np.ndarray
    work: tuple[np.ndarray, ...]
    tail: tuple[np.ndarray, np.ndarray]

    @classmethod
    def build(cls, thetas: np.ndarray, t: np.ndarray, jac: np.ndarray, w: np.ndarray,
              want_deriv: bool, rows: int, tail: tuple[np.ndarray, np.ndarray]) -> _Geometry:
        th = thetas[:, None]
        ct, sin2_t = np.cos(t)[None, :], np.sin(t)[None, :] ** 2
        sin_th, cos_th = np.sin(th / 2.0), np.cos(th / 2.0)
        # cos(phi/2) and phi - theta in forms that do not cancel as
        # sin(phi/2) = sin(theta/2) cos t -> 1 (theta near pi):
        #   cos^2(phi/2) = cos^2(theta/2) + sin^2(theta/2) sin^2 t,
        #   sin((phi - theta)/2) = -sin(theta/2) sin^2 t
        #                          / (cos(theta/2) cos t + cos(phi/2))
        cos_half = np.sqrt(cos_th ** 2 + sin_th ** 2 * sin2_t)
        d_minus = 2.0 * np.arcsin(-sin_th * sin2_t / (cos_th * ct + cos_half))
        d_plus = -(d_minus + 2.0 * th)
        jac_sec = jac / cos_half
        work = tuple(np.empty((rows,) + cos_half.shape) for _ in range(3 if want_deriv else 2))
        if not want_deriv:
            return cls(d_minus, d_plus, jac_sec, None, None, w, 0.5 * w, work, tail)
        dphi_jac = cos_th * ct
        dphi_jac /= cos_half
        dphi_jac *= jac_sec
        tan_quarter = sin_th * ct                    # sin(phi/2)
        tan_quarter /= cos_half                      # tan(phi/2)
        tan_quarter *= 0.25
        return cls(d_minus, d_plus, jac_sec, dphi_jac, tan_quarter, w, 0.5 * w, work, tail)

    def integrals(self, az: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, tuple]:
        """(2/pi) times the integrals of the scaled integrands of k and
        dk/dtheta, one row per frequency of ``az`` >= 0 (at most as many as
        the work buffers hold); integrands are scaled by exp(-az theta) and
        taken in s, times dt/ds.  The steps run in the work buffers, on the
        operands and in the order of the expressions in the comments.  The
        factors 1/2 and 1/4 are powers of two, so moving them into the
        weights, tan(phi/2) and az changes no value unless an operand is
        subnormal.  The third slot holds the error estimates of both values
        (:meth:`_tail`, in the values' units; None for the derivative when
        it is not taken)."""
        a = az[:, None, None]
        ep, em = (buf[:az.size] for buf in self.work[:2])
        # cosh(zeta phi) e^{-az th} = (e^{az(phi-th)} + e^{-az(phi+th)})/2
        np.multiply(a, self.d_minus, out=ep)
        np.exp(ep, out=ep)
        np.multiply(a, self.d_plus, out=em)
        np.exp(em, out=em)
        # f_k = 0.5 * (ep + em) * jac_sec, the 0.5 in w_half
        if self.dphi_jac is None:
            f_k = np.add(ep, em, out=ep)
            f_k *= self.jac_sec
            val_k = (2.0 / math.pi) * (f_k @ self.w_half)
            return val_k, None, ((1.0 / math.pi) * self._tail(f_k), None)
        # d/dtheta of cosh(zeta phi)/cos(phi/2):
        #   dphi/dtheta * [ az sinh(az phi) + cosh(az phi) tan(phi/2)/2 ] / cos(phi/2)
        # f_d = (0.5 * az * (ep - em) + (ep + em) * (0.25 * tan_half)) * dphi_jac
        cosh_2 = np.add(ep, em, out=self.work[2][:az.size])
        f_d = np.subtract(ep, em, out=ep)
        f_k = np.multiply(cosh_2, self.jac_sec, out=em)
        val_k = (2.0 / math.pi) * (f_k @ self.w_half)
        tail_k = (1.0 / math.pi) * self._tail(f_k)
        f_d *= 0.5 * a
        cosh_2 *= self.tan_quarter
        f_d += cosh_2
        f_d *= self.dphi_jac
        val_d = (2.0 / math.pi) * (f_d @ self.w)
        return val_k, val_d, (tail_k, (2.0 / math.pi) * self._tail(f_d))

    def _tail(self, f: np.ndarray) -> np.ndarray:
        """sum_p h_p (|c_{n-2}| + |c_{n-1}|) over the panels p, of
        half-width h_p in s, of the integrand values ``f``, per frequency
        and theta: c_j are a panel's top two discrete Legendre coefficients,
        taken from the buffer that the value's product has just read."""
        columns, half = self.tail
        c = np.abs(f.reshape(-1, columns.shape[0]) @ columns)
        return (c[:, 0] + c[:, 1]).reshape(f.shape[:2] + half.shape) @ half


def _relative(err_k, err_d, val_k, val_d) -> np.ndarray:
    """Per row: the largest error estimate relative to the value (and, for
    the derivative, to max(|k|, |k1|))."""
    res = np.max(err_k / np.abs(val_k), axis=1)
    if err_d is not None:
        scale = np.maximum(np.abs(val_d), np.abs(val_k))
        res_d = np.max(err_d / scale, axis=1)
        res = np.where(res_d > res, res_d, res)  # a NaN res_d does not count
    return res


def _efold_width(az: np.ndarray, theta: float) -> np.ndarray:
    """The e-folding width t1 of the integrands of k at the frequencies
    ``az`` >= 0 and the angle ``theta``: |zeta| (theta - phi(t1)) = 1.  With
    eps = 1/(2 |zeta|), sin^2(t1/2) = cos(theta/2 - eps/2) sin(eps/2)
    / sin(theta/2) = sin(eps) cot(theta/2)/2 + sin^2(eps/2), a sum of two
    positive terms, which does not cancel as eps -> 0 or theta -> pi;
    pi/2 where |zeta| theta <= 1, with no division there."""
    t1 = np.full(az.shape, math.pi / 2)
    far = az * theta > 1.0
    eps = 0.5 / az[far]
    cot = math.cos(0.5 * theta) / math.sin(0.5 * theta)
    t1[far] = 2.0 * np.arcsin(np.sqrt(0.5 * cot * np.sin(eps) + np.sin(0.5 * eps) ** 2))
    return t1


def _panel_groups(az: np.ndarray, th_max: float) -> dict[float, np.ndarray]:
    """The rows of the frequencies ``az`` >= 0 by the halving count q of their
    width min(t1, cos(th_max/2)), t1 the e-folding width of
    :func:`_efold_width` at th_max: the number of the halvings (pi/2)/2^i,
    i < _MAX_HALVINGS, above that width.  Keyed by the group's narrowest
    halving (pi/2)/2^q, in ascending order of q."""
    widths = np.minimum(_efold_width(az, th_max), math.cos(th_max / 2.0))
    halvings = (math.pi / 2) / 2.0 ** np.arange(_MAX_HALVINGS)
    counts = np.count_nonzero(widths[:, None] < halvings, axis=-1)
    return {(math.pi / 2) / 2.0**q: np.flatnonzero(counts == q)
            for q in sorted(set(counts.tolist()))}


def quad_log_k(zeta, thetas: np.ndarray,
               want_deriv: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """log k(zeta, theta) by quadrature, vectorized over the array ``thetas``
    and over the frequencies ``zeta`` (a scalar or a 1-d array).

    Returns (log k, k1/k) where k1 = dk/dtheta; the ratio slot is None when
    the derivative was not requested.  A scalar ``zeta`` gives 1-d arrays
    over ``thetas``, an array gives arrays of shape (zeta.size, thetas.size)
    whose row i is what ``zeta[i]`` alone gives.

    Each frequency's integrand has one peak at t = 0, of e-folding width
    t1 with |zeta| (max(theta) - phi(t1)) = 1 (pi/2 where
    |zeta| max(theta) <= 1), and toward theta = pi the complex zeros of
    cos(phi/2) approach t = 0 to about cos(max(theta)/2).  Frequencies are
    grouped by the halving count q <= 46 of min(t1, cos(max(theta)/2)),
    found for all of them by one comparison with the halvings of pi/2, and
    a group whose narrowest halving is w_q = (pi/2)/2^q integrates on
    :func:`sinh_rule` in s = asinh(t/w), w = min(1.5 w_q,
    cos(max(theta)/2)): [0, asinh((pi/2)/w)] in equal panels no longer
    than 2, with nodes t = w sinh s and weights w cosh s h w_i (Johnston &
    Elliott, IJNME 62, 2005).  The map spreads
    the peak and the near-singularity over the s-panels, so the points
    per panel run through ``_QUAD_LEVELS`` = 24, 32, 64, 96 and nearly
    every frequency stops at 24.  The integrand in s is analytic on each
    panel, inside a Bernstein ellipse of some parameter rho > 1, so its
    Legendre coefficients on a panel fall like rho^-j and the error of the
    n-point Gauss-Legendre rule like rho^-2n (Trefethen, SIAM Review 50,
    2008; Wang & Xiang, Math. Comp. 81, 2012), so the error is of the size
    of the top coefficients squared.  At each level the estimate is
    est = max over theta of sum_p h_p (|c_{n-2}| + |c_{n-1}|), with h_p the
    half-width in s of panel p and c_j = (2j+1)/2 sum_i w_i P_j(x_i) f(x_i)
    its discrete Legendre coefficients of the integrand f in s, relative to
    |k| (for the derivative, to max(|k1|, |k|)), and a frequency stops at
    the first level where est^2 <= ``QUAD_TOL``: the one convergence test.
    Per group and level, the zeta-independent part of
    the integrand is built once and the work buffers are allocated once,
    for a block of about ``_QUAD_BLOCK`` = 2^15 elements, so each frequency
    costs only its two exponentials and the arithmetic in those buffers, and
    each block's dozen numpy calls serve many frequencies; the residuals of
    all pending frequencies of a level are taken together.
    Raises :class:`DomainError`, before any arithmetic, unless ``thetas`` is
    a non-empty 1-d array inside (0, pi) and ``zeta`` a finite scalar or 1-d
    array of finite values with |zeta| max(theta) at most the reach
    ``_QUAD_REACH`` = 1.22e23, naming the first offending value or shape;
    and :class:`EvaluationError` naming the first frequency that did not
    converge.  Within the reach every frequency converges at each
    max(theta) tested up to 3.141592, at 1, 8 and 32 stations.  Up to
    3.1415 t1 stays above the narrowest group width (pi/2)/2^46 = 2.2e-14;
    at 3.141592 and the reach the map is 12 times wider than t1.  Closer
    to pi some frequencies do not converge: at 3.1415926 from |zeta|
    max(theta) = 8.9e22 on, at 3.14159265 from 5.9e21 on.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1 or not thetas.size:
        raise DomainError(f"thetas must be a non-empty 1-d array, got shape {thetas.shape}")
    _check_theta(thetas)
    zetas = np.asarray(zeta, dtype=float)
    if zetas.ndim > 1:
        raise DomainError(f"zeta must be a scalar or 1-d, got shape {zetas.shape}")
    bad = ~np.isfinite(zetas)
    if np.any(bad):
        raise DomainError(f"zeta must be finite, got {zetas[bad].flat[0]}")
    zetas = np.atleast_1d(zetas)
    az = np.abs(zetas)
    th_max = float(np.max(thetas))
    bad = ~(az <= _QUAD_REACH / th_max)
    if np.any(bad):
        raise DomainError(f"|zeta| max(theta) must be at most {_QUAD_REACH:.3g}, the quadrature's "
                          f"reach, got zeta={zetas[bad][0]:.6g} at max(theta)={th_max:.6g}")
    groups = _panel_groups(az, th_max)

    val_k = np.empty((zetas.size, thetas.size))
    val_d = np.empty_like(val_k) if want_deriv else None
    failed: dict[int, float] = {}
    for narrowest, pending in groups.items():
        width = min(_MAP_WIDTH * narrowest, math.cos(th_max / 2.0))
        for n_per in _QUAD_LEVELS:
            t, jac, w, half = sinh_rule(math.pi / 2, width, n_per)
            block = max(1, _QUAD_BLOCK // (thetas.size * t.size))
            geom = _Geometry.build(thetas, t, jac, w, want_deriv, min(block, pending.size),
                                   (_gl_tail(n_per), half))
            res = np.empty(pending.size)
            for j in range(0, pending.size, block):
                idx = pending[j:j + block]
                k_j, d_j, err = geom.integrals(az[idx])
                val_k[idx] = k_j
                if want_deriv:
                    val_d[idx] = d_j
                est = _relative(*err, k_j, d_j)
                res[j:j + block] = est * est
            del geom                 # not alive while the next level's is built
            keep = ~(res <= QUAD_TOL)                    # NaN keeps refining
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


def dtheta_ratios_from_seed(zeta: float, theta, k1_over_k):
    """Ratios d^j k / dtheta^j / k for j = 1, 2, 3, from the ODE recursion
    in x = cos(theta), seeded by the first-derivative ratio; ``zeta``,
    ``theta`` and ``k1_over_k`` may be arrays that broadcast together."""
    x = np.cos(theta)
    s = np.sin(theta)
    s2 = s * s
    c = zeta * zeta + 0.25
    # P[k] = (d/dx)^k P / P at x = cos(theta)
    P = [np.ones_like(x), -np.asarray(k1_over_k) / s]
    for k in range(2):
        P.append((2.0 * (k + 1) * x * P[k + 1] + (c + k * (k + 1)) * P[k]) / s2)
    return [s * 0 + k1_over_k,                    # d1 = -s * P1 = k1/k
            -x * P[1] + s2 * P[2],
            s * P[1] + 3.0 * s * x * P[2] - s * s2 * P[3]]


# ---------------------------------------------------------------------------
# Bessel helpers
# ---------------------------------------------------------------------------

# terms of the power series; at x = BESSEL_SERIES_MAX the last is below
# 1e-40 of the sum
_SERIES_TERMS = 48


def _ive_series(m: int, x: np.ndarray) -> np.ndarray:
    term = np.ones_like(x)
    for j in range(1, m + 1):
        term = term * (0.5 * x) / j
    q = 0.25 * x * x
    total = term
    for j in range(1, _SERIES_TERMS):
        term = term * q / (j * (j + m))
        total = total + term
    return total * np.exp(-x)


def ive(m: int, x) -> np.ndarray:
    """e^{-x} I_m(x) for m in 0..4 and finite x >= 0 (not checked here), as
    an array of the shape of ``x``; each element depends on that element
    alone."""
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    out = np.empty(flat.shape)
    small = flat <= BESSEL_SERIES_MAX
    out[small] = _ive_series(m, flat[small])
    large = np.flatnonzero(~small)
    brackets = np.ceil(np.sqrt(flat[large]))
    # not np.unique, which imports numpy.ma
    for b in sorted(set(brackets.tolist())):
        n = 32 + 8 * int(b)
        t = (np.arange(n) + 0.5) * (math.pi / n)     # midpoints of [0, pi]
        rows = large[brackets == b]
        e = np.exp(np.multiply.outer(-flat[rows], 2.0 * np.sin(0.5 * t) ** 2))
        out[rows] = np.sum(e * np.cos(m * t), axis=1) / n
    return out.reshape(xs.shape)


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
    """e^{-x} * (d/dx)^k I_0(x) for k in 0..4 and finite x >= 0; a float for
    scalar x, an array of the same shape for array x."""
    if k not in _I0_DERIV_COMBO:
        raise DomainError(f"derivative order must be in 0..4, got {k}")
    xs = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(xs) & (xs >= 0))
    if np.any(bad):
        raise DomainError(
            f"argument must be finite and nonnegative, got {xs[bad].flat[0]}")
    val = sum(c * ive(m, xs) for m, c in _I0_DERIV_COMBO[k].items())
    return float(val) if xs.ndim == 0 else val


def bessel_form_ratio(zeta: float, theta: float) -> float:
    """k(zeta, theta) over its uniform large-frequency form
    I_0(zeta theta) / sqrt(sinc theta); tends to 1 as zeta grows."""
    _check_theta(theta)
    x = abs(zeta) * theta
    log_i0 = math.log(bessel_i0_derivative_scaled(0, x)) + x
    log_k, _ = quad_log_k(zeta, np.array([theta]))
    return math.exp(float(log_k[0]) + 0.5 * math.log(float(sinc(theta))) - log_i0)


# ---------------------------------------------------------------------------
# the hypergeometric series, the half-degree pair and the Taylor angle
# ---------------------------------------------------------------------------

def legendre_dtheta(theta, zeta2, k: int) -> np.ndarray:
    """Rows a_0..a_k, k in 1..3: P_{-1/2 + i m}(cos theta) = 2F1(1/2 + i m,
    1/2 - i m; 1; z) and its first k theta-derivatives, with ``theta`` in
    (0, pi) and ``zeta2`` = m^2 broadcast together to the shape that follows
    the row index.

    The z-derivatives of the series in z = sin^2(theta/2),

        S_j = sum_{n>=j} n!/(n-j)! T_n / z^j,   T_n = Q_n z^n / (n!)^2,
        Q_n = prod_{i<n} ((i + 1/2)^2 + m^2),

    come from one running term, the (n+j)-th term of S_j taken as T_n
    prod_{i=n}^{n+j-1} ((i + 1/2)^2 + m^2) / (i + 1) so that no small angle
    underflows it, and a_j from them by the chain rule through z(theta).
    The terms come in blocks of _SERIES_BLOCK, the running term by a
    cumulative product and the sums by a cumulative sum, so a block costs a
    fixed number of array operations.  Each element stops at its first
    term at which every latest term is at most SERIES_TOL max(1, |sum|),
    which holds where terms change sign and where the sum crosses zero;
    the terms after it, in its block, are not added.  So an array call
    gives what scalar calls give.  A non-finite sum, or SERIES_MAX_TERMS
    terms, raise an evaluation error.
    """
    if k not in (1, 2, 3):
        raise DomainError(f"derivative order must be in 1..3, got {k}")
    _check_theta(theta)
    th, m2 = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                 np.asarray(zeta2, dtype=float))
    z = np.sin(th / 2.0) ** 2
    term = np.ones((1,) + th.shape)
    sums = np.zeros((k + 1, 1) + th.shape)
    live = np.ones(th.shape, dtype=bool)
    n0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live.any() and n0 < SERIES_MAX_TERMS:
            n = np.arange(n0, min(n0 + _SERIES_BLOCK, SERIES_MAX_TERMS), dtype=float)
            n = n.reshape(n.shape + (1,) * th.ndim)
            n0 += n.shape[0]
            # part j of term n over part j - 1: ((n + j - 1/2)^2 + m^2) / (n + j)
            steps = [((n + j - 0.5) ** 2 + m2) / (n + j) for j in range(1, k + 1)]
            # T_0..T_B of the block, the last one starting the next block
            terms = np.cumprod(np.concatenate([term, steps[0] * z / (n + 1.0)]), axis=0)
            parts = [terms[:-1]]
            for step in steps:
                parts.append(parts[-1] * step)
            parts = np.array(parts)
            running = np.cumsum(np.concatenate([sums, parts], axis=1), axis=1)[:, 1:]
            going = (np.abs(parts) > SERIES_TOL * np.maximum(1.0, np.abs(running))).any(axis=0)
            # each live element takes the sums at its first stopping term
            on = going.all(axis=0)
            last = np.where(on, going.shape[0] - 1, np.argmin(going, axis=0))
            taken = np.take_along_axis(running, last[None, None], axis=1)
            sums = np.where(live, taken, sums)
            live &= on
            term = terms[-1:]
            if not np.isfinite(sums).all():
                break
    sums = sums[:, 0]
    finite = np.isfinite(sums).all()
    if live.any() or not finite:
        raise EvaluationError(
            f"Legendre series {'did not converge' if finite else 'overflowed'} "
            f"within {n0} terms (largest z {np.max(z):.6g}, largest m^2 "
            f"{np.max(m2):.6g})")
    # dz/dtheta = sin/2, d2z/dtheta2 = cos/2, d3z/dtheta3 = -sin/2
    zp, zpp = np.sin(th) / 2.0, np.cos(th) / 2.0
    rows = [sums[0], zp * sums[1]]
    if k >= 2:
        rows.append(zpp * sums[1] + zp**2 * sums[2])
    if k == 3:
        rows.append(sums[3] * zp**3 + 3.0 * zp * zpp * sums[2] - zp * sums[1])
    return np.array(rows)


def legendre_half(theta):
    """(P_{1/2}(-cos theta), P^1_{1/2}(-cos theta)) for a float or an array
    ``theta``: :func:`legendre_dtheta` at m^2 = -1 and angle pi - theta.

    The associated value is the plain derivative form P^1 = sin(theta)
    dP/dx = d/dtheta P_{1/2}(-cos theta) (positive on (0, pi)); the sign
    convention carries no Condon-Shortley factor.
    """
    _check_theta(theta)
    th = np.asarray(theta, dtype=float)
    reflected = math.pi - th
    rounded = reflected >= math.pi
    if np.any(rounded):
        raise DomainError(
            f"theta {float(th[rounded].flat[0])} is so small that pi - theta rounds to pi")
    p, dp = legendre_dtheta(reflected, -1.0, 1)
    return p, -dp


#: cap of Newton's iteration for the Taylor angle, which takes 3 steps
_NEWTON_MAX_STEPS = 50
#: Newton's iteration for the Taylor angle stops once a step is at most this
_NEWTON_TOL = 1e-10


@lru_cache(maxsize=1)
def taylor_angle() -> ConeAngle:
    """Opening angle of the equilibrium cone: the root of
    P_{1/2}(-cos theta) = 0 in the bracket (0.2 pi, 0.35 pi).

    Newton's iteration from the middle of the bracket, with the derivative
    d/dtheta P_{1/2}(-cos theta) = P^1_{1/2}(-cos theta) that
    :func:`legendre_half` returns alongside the value; it stops once a step
    is at most ``_NEWTON_TOL``.  Solved once per process: the result is
    immutable and cached.
    """
    lo, hi = 0.2 * math.pi, 0.35 * math.pi
    theta = 0.5 * (lo + hi)
    for _ in range(_NEWTON_MAX_STEPS):
        value, slope = legendre_half(theta)
        step = float(value / slope)
        theta -= step
        if not lo < theta < hi:
            raise EvaluationError(
                f"Newton iterate {theta:.6g} for P_{{1/2}}(-cos theta) = 0 left "
                f"the bracket ({lo:.4f}, {hi:.4f})")
        if abs(step) <= _NEWTON_TOL:
            return ConeAngle(theta)
    raise EvaluationError(
        f"Newton iteration for the Taylor angle took {_NEWTON_MAX_STEPS} steps "
        f"without a step below {_NEWTON_TOL:.1e}")
