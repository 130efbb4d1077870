"""Shape calculus of the perturbed-cone DN operator.

Four pieces built on the strip solver:

* the closed-form derivative of the DN operator in the profile direction h,
  validated against central finite differences of the solver;
* the pointwise derivatives of the strip coefficients (A, gamma) in the
  profile, and the interior field that represents the domain variation;
* the cancellation quantity G(B + V) + d_sigma(V - B), whose spectral tail
  decays one order faster than its individual terms (on the exact cone its
  symbol is g(zeta)^2 - zeta^2 = O(zeta), two orders below the naive
  zeta^2);
* the graded expansion of the DN operator in powers of a fixed perturbation
  shape, with coefficient multipliers a_k built from an explicit product
  series.

The expansion recursion implemented here places the slope factor at degree
l - 1 (slope term: eta_s eta^{l-1} times the (l-1)-th multiplier applied to
d_sigma phi); the alternative placement at degree l breaks the measured
O(eps^3) remainder and is rejected by the solver oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conical import ConeAngle, ConicalParams
from .errors import DomainError, EvaluationError
from .grid import GridFn, SigmaGrid, Spectrum, to_gridfn, to_spectrum
from .strip import (
    ConeProfile,
    StripField,
    StripGrid,
    dn_general,
    dsigma_values,
)

__all__ = [
    "ShapePerturbation",
    "StokesCoeffs",
    "DecayReport",
    "shape_derivative",
    "shape_central_difference",
    "d_eta_coefficients",
    "CoefficientDerivative",
    "varpi_field",
    "cancellation_quantity",
    "flat_cancellation_symbol",
    "stokes_coefficients",
    "stokes_a3",
    "third_derivative_series",
    "stokes_g_ell",
]


@dataclass(frozen=True)
class ShapePerturbation:
    """Profile variation direction h(sigma)."""

    h: GridFn

    def __post_init__(self) -> None:
        self.h.real_values(tol=1e-10)

    @staticmethod
    def gaussian(grid: SigmaGrid, amplitude: float, width: float) -> "ShapePerturbation":
        if width <= 0:
            raise DomainError(f"width must be positive, got {width}")
        return ShapePerturbation(GridFn.from_callable(
            grid, lambda s: amplitude * np.exp(-((s / width) ** 2))))

    @staticmethod
    def bump(grid: SigmaGrid, amplitude: float, width: float) -> "ShapePerturbation":
        """Compactly supported mollifier profile, value `amplitude` at 0."""
        if width <= 0:
            raise DomainError(f"width must be positive, got {width}")

        def f(s):
            x = s / width
            inside = np.abs(x) < 1.0
            out = np.zeros_like(s, dtype=float)
            xs = np.clip(x[inside] ** 2, 0.0, 1.0 - 1e-15)
            out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - xs))
            return out

        return ShapePerturbation(GridFn.from_callable(grid, f))

    @staticmethod
    def mode(grid: SigmaGrid, amplitude: float, frequency: int) -> "ShapePerturbation":
        zk = math.pi * frequency / grid.L
        return ShapePerturbation(GridFn.from_callable(
            grid, lambda s: amplitude * np.cos(zk * s)))


def shape_derivative(profile: ConeProfile, phi: GridFn,
                     h: ShapePerturbation, grid: StripGrid) -> GridFn:
    """Derivative of the DN operator in the profile direction h:

        -G[eta](h B + V) - d_sigma(h V - B) + (h - eta_s){phi/4 - B cot(eta)}

    where B and V are the normal and tangential boundary traces of the
    extension of phi.  The h-independent part of the formula vanishes
    identically (a consequence of the trace identity), so the value is
    linear in h up to discretization error.
    """
    sgrid = profile.grid
    res = dn_general(profile, phi, grid)
    b = res.b_normal.real_values(tol=1e-8)
    vt = res.v_tangential.real_values(tol=1e-8)
    hv = h.h.real_values(tol=1e-10)

    second = dn_general(profile, GridFn(sgrid, hv * b + vt), grid)
    g2 = second.g_of_phi.real_values(tol=1e-8)

    eta, eta_s = profile.eta, profile.eta_sigma
    cot = np.cos(eta) / np.sin(eta)
    bracket = phi.real_values(tol=1e-10) / 4.0 - b * cot
    out = -g2 - dsigma_values(sgrid, hv * vt - b) + (hv - eta_s) * bracket
    return GridFn(sgrid, out)


def shape_central_difference(profile: ConeProfile, phi: GridFn, h: ShapePerturbation,
                             grid: StripGrid, epsilon: float) -> GridFn:
    """(G[eta + epsilon h] - G[eta - epsilon h]) phi / (2 epsilon): the
    solver-only oracle for :func:`shape_derivative`."""

    def g_of_phi(sign: float) -> np.ndarray:
        shifted = ConeProfile(profile.theta_star, profile.eta_tilde + sign * epsilon * h.h)
        return dn_general(shifted, phi, grid).g_of_phi.values

    return GridFn(profile.grid, (g_of_phi(1.0) - g_of_phi(-1.0)) / (2.0 * epsilon))


@dataclass(frozen=True)
class CoefficientDerivative:
    """Entries of the profile derivative of A on the y faces (symmetric)."""

    grid: StripGrid
    d11: np.ndarray = field(repr=False)
    d12: np.ndarray = field(repr=False)
    d22: np.ndarray = field(repr=False)


def _omega(theta: np.ndarray) -> np.ndarray:
    """(theta cos theta - sin theta)/theta^2, regular at 0 (limit 0, slope -1/3)."""
    th = np.asarray(theta, dtype=float)
    small = np.abs(th) < 1e-4
    out = np.empty_like(th)
    ts = th[small]
    out[small] = -ts / 3.0 + ts**3 / 30.0
    tb = th[~small]
    out[~small] = (tb * np.cos(tb) - np.sin(tb)) / tb**2
    return out


def d_eta_coefficients(profile: ConeProfile, h: ShapePerturbation,
                       grid: StripGrid) -> tuple[CoefficientDerivative, np.ndarray]:
    """Pointwise derivative of (A, gamma) in the profile direction h.

    dA.h = y^2 h omega(y eta) [[eta^2, -y eta eta_s], [-y eta eta_s, 1 + y^2 eta_s^2]]
         + y sinc(y eta) [[2 eta h, -y (eta h)_s], [-y (eta h)_s, 2 y^2 eta_s h_s]]
    dgamma.h = h (sin(y eta) + y eta cos(y eta)) / 4.

    Returns (dA entries on the faces, dgamma on the cell centers).
    """
    if profile.grid != grid.sigma:
        raise DomainError("profile and strip grid live on different sigma grids")
    sg = grid.sigma
    hv = h.h.real_values(tol=1e-10)
    hs = dsigma_values(sg, hv)
    eta = profile.eta[:, None]
    eta_s = profile.eta_sigma[:, None]
    h_col = hv[:, None]
    hs_col = hs[:, None]
    deh = dsigma_values(sg, profile.eta * hv)[:, None]

    y = grid.faces[None, :]
    w = _omega(y * eta)
    snc = np.sinc(y * eta / np.pi)
    d11 = y**2 * h_col * w * eta**2 + y * snc * 2.0 * eta * h_col
    d12 = y**2 * h_col * w * (-y * eta * eta_s) + y * snc * (-y * deh)
    d22 = (y**2 * h_col * w * (1.0 + (y * eta_s) ** 2)
           + y * snc * 2.0 * y**2 * eta_s * hs_col)

    yc = grid.centers[None, :]
    dgamma = hv[:, None] * (np.sin(yc * eta) + yc * eta * np.cos(yc * eta)) / 4.0
    return CoefficientDerivative(grid=grid, d11=d11, d12=d12, d22=d22), dgamma


def varpi_field(profile: ConeProfile, v: StripField,
                h: ShapePerturbation) -> StripField:
    """Interior representative of the domain variation:

        varpi = (h - eta_s) y dv/dy / eta + dv/dsigma

    with spectral sigma derivative and second-order finite differences in y.
    Its trace at y = 1 is h B + V.
    """
    if v.y_samples is not None:
        raise DomainError("field must be cell-centered")
    sg = v.grid.sigma
    if profile.grid != sg:
        raise DomainError("profile and field live on different sigma grids")
    hv = h.h.real_values(tol=1e-10)
    vals = v.values
    dy = v.grid.delta_y
    dvy = np.gradient(vals, dy, axis=1, edge_order=2)
    dvs = dsigma_values(sg, vals)
    y = v.grid.centers[None, :]
    coef = (hv - profile.eta_sigma)[:, None] / profile.eta[:, None]
    return StripField(grid=v.grid, values=coef * y * dvy + dvs)


# ---------------------------------------------------------------------------
# cancellation quantity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    """Spectral tail slopes of the cancellation quantity and its terms."""

    slopes: dict[str, float]
    gain: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {"slopes": dict(self.slopes), "gain": self.gain, "pass": self.passed}


def _tail_slope(f: GridFn) -> float:
    """Least-squares slope of log|coeff| against log<zeta> over the top
    octave of resolved frequencies, excluding the last 10% (aliasing guard)."""
    grid = f.grid
    coeffs = to_spectrum(f).coeffs
    n = grid.n_sigma
    k = np.arange(1, n // 2)
    z = math.pi * k / grid.L
    mags = np.abs(coeffs[1:n // 2])
    z_hi = 0.9 * z[-1]
    band = (z >= z_hi / 2.0) & (z <= z_hi)
    m = mags[band]
    if m.size < 4 or np.all(m < 1e-250):
        return 0.0
    logs = np.log(np.maximum(m, 1e-300))
    logz = np.log(z[band])
    a = np.vstack([logz, np.ones_like(logz)]).T
    slope, _ = np.linalg.lstsq(a, logs, rcond=None)[0]
    return float(slope)


def cancellation_quantity(profile: ConeProfile, phi: GridFn,
                          grid: StripGrid) -> tuple[GridFn, DecayReport]:
    """Q = G[eta](B + V) + d_sigma(V - B) and its decay bookkeeping.

    Although each term is a second-order operation on phi, the combination
    is first order: the report records tail slopes of Q and of the four
    individual terms, and the gain (shallowest term slope minus Q's slope).
    """
    sgrid = profile.grid
    res = dn_general(profile, phi, grid)
    b = res.b_normal.real_values(tol=1e-8)
    vt = res.v_tangential.real_values(tol=1e-8)

    g_of_b = dn_general(profile, GridFn(sgrid, b), grid).g_of_phi.real_values(tol=1e-8)
    g_of_v = dn_general(profile, GridFn(sgrid, vt), grid).g_of_phi.real_values(tol=1e-8)
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
    return q, DecayReport(slopes=slopes, gain=gain, passed=bool(gain >= 0.8))


def flat_cancellation_symbol(g: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """|g(zeta)^2 - zeta^2| / <zeta> per frequency (exact-cone symbol of the
    cancellation quantity, normalized to expose its first-order size)."""
    return np.abs(g**2 - zeta**2) / np.sqrt(1.0 + zeta**2)


# ---------------------------------------------------------------------------
# graded expansion in a fixed perturbation shape
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StokesCoeffs:
    """Coefficient table a_k(m, theta*) of the graded DN expansion, k <= order."""

    theta_star: ConeAngle
    order: int
    m_values: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)       # shape (order + 1, len(m_values))

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float, copy=True)
        m = np.array(self.m_values, dtype=float, copy=True)
        if a.shape != (self.order + 1, m.size):
            raise DomainError(f"coefficient table shape {a.shape} does not match "
                              f"order {self.order} and {m.size} frequencies")
        if not np.all(np.isfinite(a)):
            raise EvaluationError("coefficient table contains non-finite entries")
        if not np.all(a[0] > 0.0):
            raise EvaluationError("zeroth coefficient must be positive")
        a.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "m_values", m)


def _stokes_series(theta: float, zeta2: np.ndarray, tol: float,
                   max_terms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three product series S_A, S_B, S_C underlying a_0, a_1, a_2.

    S_A = sum_{n>=0} Q_n z^n / (n!)^2,   S_B = sum_{n>=1} Q_n z^{n-1}/(n!(n-1)!),
    S_C = sum_{n>=2} Q_n z^{n-2}/(n!(n-2)!),  Q_n = prod_{j<n}((j+1/2)^2 + zeta^2),
    z = sin^2(theta/2).  All terms are positive; evaluated by term ratios.
    """
    z = math.sin(theta / 2.0) ** 2
    s_a = np.ones_like(zeta2)
    t_a = np.ones_like(zeta2)
    q1 = 0.25 + zeta2
    s_b = q1.copy()
    t_b = q1.copy()
    s_c = np.zeros_like(zeta2)
    t_c = np.zeros_like(zeta2)
    for n in range(1, max_terms):
        fac = (n - 0.5) ** 2 + zeta2      # appended product factor Q_n/Q_{n-1}
        t_a = t_a * z * fac / n**2
        s_a = s_a + t_a
        if n >= 2:
            fac_next = (n - 0.5) ** 2 + zeta2
            t_b = t_b * z * fac_next / (n * (n - 1))
            s_b = s_b + t_b
            if n == 2:
                t_c = q1 * (2.25 + zeta2) / 2.0
                s_c = t_c.copy()
            else:
                t_c = t_c * z * fac_next / (n * (n - 2))
                s_c = s_c + t_c
        shrinking = np.all(t_a <= s_a * tol) and np.all(t_b <= s_b * tol)
        done_c = np.all(t_c <= np.maximum(s_c, 1.0) * tol) if n >= 2 else False
        if shrinking and done_c:
            return s_a, s_b, s_c
    raise EvaluationError(
        "graded-expansion coefficient series did not converge within "
        f"{max_terms} terms (largest frequency {math.sqrt(float(np.max(zeta2))):.3g}); "
        "use the symbol-table route for this frequency band")


def third_derivative_series(theta_star: ConeAngle, m_values: np.ndarray,
                            p: ConicalParams = ConicalParams()) -> np.ndarray:
    """Third angle derivative a_3(m, theta*) of the kernel, evaluated directly
    from the product series (chain rule through z = sin^2(theta*/2)); an
    independent check on :func:`stokes_a3`."""
    theta = theta_star.theta_star
    zeta2 = np.asarray(m_values, dtype=float) ** 2
    tol, max_terms = p.series_tol, p.series_max_terms
    z = math.sin(theta / 2.0) ** 2
    term = (0.25 + zeta2) * (2.25 + zeta2) * (6.25 + zeta2) / 6.0
    s_d = term.copy()
    for n in range(3, max_terms):
        fac = (n + 0.5) ** 2 + zeta2
        term = term * fac * z / ((n + 1.0) * (n - 2.0))
        s_d = s_d + term
        if np.all(term <= tol * s_d):
            break
    else:
        raise EvaluationError(
            f"third-derivative series did not converge within {max_terms} terms")
    _, s_b, s_c = _stokes_series(theta, zeta2, tol, max_terms)
    half = theta / 2.0
    zp = math.sin(half) * math.cos(half)
    return (s_d * zp**3 + 3.0 * s_c * zp * math.cos(theta) / 2.0
            - s_b * math.sin(theta) / 2.0)


def stokes_coefficients(theta_star: ConeAngle, m_values: np.ndarray,
                        order: int = 2,
                        p: ConicalParams = ConicalParams()) -> StokesCoeffs:
    """Coefficient table a_k(m, theta*) for k <= order on the given frequencies.

    a_0 is the angular kernel itself, a_1 and a_2 its first and second angle
    derivatives, all as explicit product series in z = sin^2(theta*/2).
    """
    if order < 0 or order > 2:
        raise DomainError(f"order must be in 0..2, got {order}")
    th = theta_star.theta_star
    m = np.asarray(m_values, dtype=float)
    if m.ndim != 1 or m.size == 0:
        raise DomainError("m_values must be a nonempty 1-d array")
    s_a, s_b, s_c = _stokes_series(th, m * m, p.series_tol, p.series_max_terms)
    rows = [s_a]
    if order >= 1:
        rows.append(0.5 * math.sin(th) * s_b)
    if order >= 2:
        rows.append(0.5 * math.cos(th) * s_b + 0.25 * math.sin(th) ** 2 * s_c)
    return StokesCoeffs(theta_star=theta_star, order=order,
                        m_values=m, a=np.vstack(rows))


def stokes_a3(coeffs: StokesCoeffs) -> np.ndarray:
    """a_3 from the angular equation a_3 = (csc^2 + m^2 + 1/4) a_1 - cot * a_2."""
    if coeffs.order < 2:
        raise DomainError("a_3 needs an order-2 coefficient table")
    th = coeffs.theta_star.theta_star
    csc2 = 1.0 / math.sin(th) ** 2
    cot = math.cos(th) / math.sin(th)
    return (csc2 + coeffs.m_values ** 2 + 0.25) * coeffs.a[1] - cot * coeffs.a[2]


def _ratio_tables(coeffs: StokesCoeffs) -> dict[int, np.ndarray]:
    """Multiplier ratios a_k/a_0 for k = 0..3."""
    a3 = stokes_a3(coeffs)
    a0, a1, a2 = coeffs.a
    return {0: np.ones_like(a0), 1: a1 / a0, 2: a2 / a0, 3: a3 / a0}


def stokes_g_ell(coeffs: StokesCoeffs, eta_tilde: GridFn, ell: int,
                 phi: GridFn) -> GridFn:
    """Degree-ell operator of the graded DN expansion in the shape eta_tilde.

    Recursion (slope factor at degree ell - 1):

      G_l phi = (1/l!) eta^l A_{l+1} phi
              - (1/(l-1)!) eta_s eta^{l-1} A_{l-1} d_sigma phi    (l >= 1)
              - sum_{j<l} (1/(l-j)!) G_j[eta^{l-j} A_{l-j} phi]

    where A_k is the Fourier multiplier a_k(m)/a_0(m).  G_0 is the exact-cone
    DN multiplier.
    """
    if ell < 0 or ell > 2:
        raise DomainError(f"expansion degree must be in 0..2, got {ell}")
    grid = phi.grid
    if eta_tilde.grid != grid:
        raise DomainError("perturbation shape and data live on different grids")
    if coeffs.m_values.shape != grid.zeta.shape or \
            not np.allclose(coeffs.m_values, np.abs(grid.zeta), rtol=0, atol=0):
        raise DomainError("coefficient table frequencies do not match the grid")
    ratios = _ratio_tables(coeffs)

    tilde = eta_tilde.real_values(tol=1e-10)
    tilde_s = dsigma_values(grid, tilde)

    def mult(k: int, vals: np.ndarray) -> np.ndarray:
        hat = to_spectrum(GridFn(grid, vals)).coeffs * ratios[k]
        return np.real(to_gridfn(Spectrum(grid, hat)).values)

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

    return GridFn(grid, g_rec(ell, phi.real_values(tol=1e-10)))
