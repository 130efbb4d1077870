"""Periodic grid functions on the log-radial line and their transforms.

The half-line radius r is mapped to sigma = -ln(r); the line is truncated to
the periodic interval [-L, L).  All fields the package manipulates (surface
perturbations, Dirichlet data, Dirichlet-Neumann outputs) live on this grid.
Interior fields live on the strip (sigma, y) in [-L, L) x (0, 1], y the
fraction of the opening angle: a ``StripField`` holds one column per station
in y, whether a strip solve's cell centers or an extension's angles.

Fourier convention
------------------
One transform, the real one: numpy's rfft over the modes k = 0..n/2 with
frequencies zeta_k = pi k / L (``grid.rfft_zeta``).  :func:`mode_amplitudes`
gives the real-mode amplitudes

    a_k = c_k (sqrt(2L)/n) |rfft[f]_k|,   c_0 = c_{n/2} = 1, c_k = sqrt(2) else,

so that the discrete Parseval identity

    delta_sigma * sum_j f_j^2 = sum_k a_k^2

is exact, and a cos(zeta_k sigma), 0 < k < n/2, has amplitude a sqrt(L).
Every norm is a weighted sum over these amplitudes.  The norms, the tail
slope, the multipliers and the strip solve transform their data scaled by
a power of two (:func:`binary_scaled`), so data 2^k times larger give
results exactly 2^k times larger, and a result beyond the float range is inf.

Fields are real: ``GridFn`` stores float64 samples, and every Fourier
multiplier acts through :func:`multiplier_values`, a real transform over the
same modes, with a symbol s(zeta_k >= 0) that meets s(-zeta) = conj s(zeta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, EvaluationError

__all__ = [
    "SigmaGrid",
    "GridFn",
    "StripField",
    "mode_amplitudes",
    "binary_scaled",
    "sobolev_norm",
    "multiplier_values",
    "dsigma_values",
    "l2_norm",
    "pullback_norm_check",
]


#: bound on pi times a grid's top frequency, so on |zeta| theta over its
#: frequencies at angles theta < pi: it lies below conical.quad_log_k's
#: reach, |zeta| theta = 1.22e23.  Within it the quadrature converges at
#: every angle tested up to 3.141592; at 3.1415926 some frequencies from
#: |zeta| theta = 8.9e22 on do not
MAX_ZETA_THETA = 1e23


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SigmaGrid:
    """Uniform periodic grid sigma_j = -L + j*delta on [-L, L).

    Parameters
    ----------
    L : float
        Half-width of the periodic window, 0 < L, with 2L/n_sigma finite
        and the top frequency pi n_sigma/(2L) at most MAX_ZETA_THETA/pi.
    n_sigma : int
        Number of nodes; a power of two, at least 8.
    """

    L: float
    n_sigma: int

    def __post_init__(self) -> None:
        n = self.n_sigma
        if n < 8 or (n & (n - 1)) != 0:
            raise ConfigurationError(
                f"n_sigma must be a power of two >= 8, got {n}")
        if not (0 < self.L and math.isfinite(self.delta)):
            raise ConfigurationError(f"grid half-width and spacing 2L/n_sigma must be "
                                     f"positive and finite, got L={self.L}")
        top = math.pi * n / (2.0 * self.L)
        if not math.pi * top <= MAX_ZETA_THETA:
            raise ConfigurationError(
                f"grid top frequency pi n_sigma/(2L) = {top:.3g} exceeds "
                f"{MAX_ZETA_THETA / math.pi:.3g}, the kernel quadrature's reach at "
                f"angles up to pi; got L={self.L}, n_sigma={n}")

    @property
    def delta(self) -> float:
        return 2.0 * self.L / self.n_sigma

    @property
    def sigma(self) -> np.ndarray:
        """Nodes sigma_j = -L + j*delta, j = 0..n-1."""
        return _readonly(-self.L + self.delta * np.arange(self.n_sigma))

    @property
    def r(self) -> np.ndarray:
        """Log-image nodes r_j = exp(-sigma_j)."""
        return _readonly(np.exp(-self.sigma))

    @property
    def zeta(self) -> np.ndarray:
        """Grid frequencies zeta_k = pi k / L in FFT ordering."""
        k = np.fft.fftfreq(self.n_sigma, d=1.0 / self.n_sigma)
        return _readonly(np.pi * k / self.L)

    @property
    def rfft_zeta(self) -> np.ndarray:
        """Frequencies zeta_k = pi k / L of the real-transform modes k = 0..n/2."""
        return _readonly(np.abs(self.zeta[: self.n_sigma // 2 + 1]))


@dataclass(frozen=True, eq=False)
class GridFn:
    """Real samples on a SigmaGrid, a read-only float64 array; complex input
    raises ConfigurationError.  Fields compare by identity and have no arithmetic:
    they combine through ``values``, and two-field functions check the grid."""

    grid: SigmaGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.shape != (self.grid.n_sigma,):
            raise ConfigurationError(
                f"values length {v.shape} does not match grid n_sigma={self.grid.n_sigma}")
        if np.iscomplexobj(v):
            raise ConfigurationError("field must be real, got complex samples")
        object.__setattr__(self, "values", _readonly(np.array(v, dtype=float)))

    # ---- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, grid: SigmaGrid) -> "GridFn":
        return cls(grid, np.zeros(grid.n_sigma))

    def real_values(self, tol: float | None = None) -> np.ndarray:
        """A writable copy of the samples; ``tol`` is unused, as complex
        samples are refused at construction.  Only the benchmark's workloads
        call it; it goes once they read ``values``, as the package and its
        tests do."""
        return self.values.copy()


#: a last station within this of y = 1 is the boundary: a fraction
#: theta/theta* lands there to rounding, far closer than any two stations
TRACE_STATION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StripField:
    """Real field on the strip: values[i, j] at (sigma_i, ys[j]).

    The stations ``ys`` in y = theta/eta are the cell centers of a strip
    solve or the angle fractions of an exact-cone extension.  Both arrays
    are read-only float64.
    """

    sigma: SigmaGrid
    ys: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        ys = _readonly(np.array(self.ys, dtype=float))
        vals = _readonly(np.array(self.values, dtype=float, order="C"))
        if vals.shape != (self.sigma.n_sigma,) + ys.shape:
            raise DomainError(
                f"values shape {vals.shape} does not match "
                f"(n_sigma, stations) = {(self.sigma.n_sigma,) + ys.shape}")
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "values", vals)

    def boundary_trace(self) -> np.ndarray:
        """The column whose station lies at y = 1; DomainError when the
        last station is not there."""
        if abs(float(self.ys[-1]) - 1.0) < TRACE_STATION_TOL:
            return np.array(self.values[:, -1])
        raise DomainError("stations do not include y = 1; no trace defined")


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def mode_amplitudes(f: GridFn) -> np.ndarray:
    """Real-mode amplitudes a_k >= 0 of f on ``grid.rfft_zeta``, with
    sum_k a_k^2 = delta * sum_j f_j^2 (the module's Fourier convention)."""
    g = f.grid
    a = (math.sqrt(2.0 * g.L) / g.n_sigma) * np.abs(np.fft.rfft(f.values))
    a[1:-1] *= math.sqrt(2.0)
    return a


def binary_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``(values 2^-e, e)``, e the binary exponent of max|values|, 0 for zero or
    non-finite data: exact, and max|values 2^-e| lies in [1/2, 1)."""
    values = np.asarray(values, dtype=float)
    e = math.frexp(float(np.max(np.abs(values))))[1]
    return np.ldexp(values, -e), e


def _spectral_norm(f: GridFn, weight: np.ndarray) -> float:
    """(sum_k weight_k a_k^2)^{1/2}, the amplitudes taken of f scaled by
    :func:`binary_scaled`.  A norm above the float range is inf."""
    scaled, e = binary_scaled(f.values)
    a = mode_amplitudes(GridFn(f.grid, scaled))
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(float(np.sum(weight * a * a))), e))


def sobolev_norm(f: GridFn, s: float) -> float:
    """Periodic Sobolev norm (sum_k <zeta_k>^{2s} a_k^2)^{1/2},
    <zeta> = sqrt(1 + zeta^2).  Equals the L2 norm at s = 0."""
    if not (-4.0 <= s <= 8.0):
        raise DomainError(f"sobolev order s={s} outside supported range [-4, 8]")
    return _spectral_norm(f, (1.0 + f.grid.rfft_zeta**2) ** s)


def multiplier_values(grid: SigmaGrid, values: np.ndarray,
                      symbol: np.ndarray) -> np.ndarray:
    """Fourier multiplier along axis 0 of a real array: the real transform of
    ``values`` (n_sigma, ...) times ``symbol``, sampled on ``grid.rfft_zeta``
    with shape (n/2 + 1,) or (n/2 + 1, ...), transformed back.  The symbol's
    Nyquist value counts by its real part only.  A non-finite symbol value
    raises EvaluationError naming the first frequency that holds one."""
    sym = np.asarray(symbol)
    bad = ~np.isfinite(sym)
    if np.any(bad):
        k = int(np.nonzero(np.atleast_1d(bad))[0][0])
        raise EvaluationError(
            f"multiplier symbol not finite at zeta_k={grid.rfft_zeta[k]:.6g} (index {k})")
    scaled, e = binary_scaled(values)
    hat = np.fft.rfft(scaled, axis=0)
    sym = sym.reshape(sym.shape + (1,) * (hat.ndim - sym.ndim))
    with np.errstate(over="ignore"):
        return np.ldexp(np.fft.irfft(hat * sym, n=grid.n_sigma, axis=0), e)


def dsigma_values(grid: SigmaGrid, values: np.ndarray) -> np.ndarray:
    """Spectral d/dsigma along axis 0 of a real array.  The Nyquist mode is
    dropped (an antisymmetric operator, so the strip energy stays
    symmetric)."""
    return multiplier_values(grid, values, 1j * grid.rfft_zeta)


def l2_norm(f: GridFn) -> float:
    """L2 norm over one period, (delta * sum f_j^2)^{1/2} summed over the
    mode amplitudes."""
    return sobolev_norm(f, 0.0)


# ---------------------------------------------------------------------------
# log-radial pullback norm comparison
# ---------------------------------------------------------------------------

def pullback_norm_check(F: GridFn, m: int) -> tuple[float, float]:
    """Compare the two natural order-m norms of a field given on the
    log-image grid r_j = exp(-sigma_j).

    Returns ``(lhs, rhs)`` where lhs is the H^m norm in the sigma variable
    of f(sigma) = F(exp(-sigma)) and rhs is the radially weighted norm
    (sum_{k=0}^m integral r^{2k-1} |d^k F / dr^k|^2 dr)^{1/2}.  Since
    r d/dr = -d/dsigma, r^k d^k/dr^k is the multiplier of the falling
    factorial (-i zeta)(-i zeta - 1)...(-i zeta - k + 1), whose modulus
    squared is prod_{j<k} (zeta^2 + j^2); with integral r^{2k-1} dr =
    integral r^{2k} dsigma both norms are weighted sums over the mode
    amplitudes.  For m = 1 the two weights are the same floats (exact
    change of variables); for m = 2, 3 they are equivalent with a modest
    constant.
    """
    if m not in (1, 2, 3):
        raise DomainError(f"pullback comparison supports m in {{1,2,3}}, got {m}")
    z2 = F.grid.rfft_zeta ** 2
    lhs_w, rhs_w, falling = np.ones_like(z2), np.ones_like(z2), np.ones_like(z2)
    for k in range(1, m + 1):
        falling = falling * (z2 + (k - 1) ** 2)
        lhs_w = lhs_w + z2**k
        rhs_w = rhs_w + falling
    return _spectral_norm(F, lhs_w), _spectral_norm(F, rhs_w)
