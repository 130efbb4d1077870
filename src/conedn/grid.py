"""Periodic grid functions on the log-radial line and their transforms.

The half-line radius r is mapped to sigma = -ln(r); the line is truncated to
the periodic interval [-L, L).  All fields the package manipulates (surface
perturbations, Dirichlet data, Dirichlet-Neumann outputs) live on this grid.

Transform convention
--------------------
Orthonormal basis e_k(sigma) = exp(i zeta_k sigma) / sqrt(2L) with
zeta_k = pi k / L.  Coefficients are

    fhat_k = (sqrt(2L)/n) * (-1)^k * FFT[f]_k,

the (-1)^k factor re-anchoring the origin of the FFT at sigma = -L.  With
this normalization the discrete Parseval identity

    delta_sigma * sum_j |f_j|^2 = sum_k |fhat_k|^2

is exact, and a unit-amplitude single mode has spectral norm sqrt(2L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError, DomainError, EvaluationError

#: tolerance used when an operation asserts a field is real
REALNESS_TOL = 1e-10


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
        Half-width of the periodic window, L > 0.
    n_sigma : int
        Number of nodes; a power of two, at least 8.
    """

    L: float
    n_sigma: int

    def __post_init__(self) -> None:
        if not (self.L > 0):
            raise ConfigurationError(f"grid half-width must be positive, got L={self.L}")
        n = self.n_sigma
        if n < 8 or (n & (n - 1)) != 0:
            raise ConfigurationError(
                f"n_sigma must be a power of two >= 8, got {n}")

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
    def _phase(self) -> np.ndarray:
        # (-1)^k for signed FFT index k
        k = np.rint(np.fft.fftfreq(self.n_sigma, d=1.0 / self.n_sigma)).astype(int)
        return _readonly(1.0 - 2.0 * (np.abs(k) % 2))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SigmaGrid)
                and self.L == other.L and self.n_sigma == other.n_sigma)

    def __hash__(self) -> int:
        return hash((self.L, self.n_sigma))


@dataclass(frozen=True)
class GridFn:
    """Samples of a function on a SigmaGrid.  Stored complex; operations
    that mathematically require a real field assert it (tolerance 1e-10)."""

    grid: SigmaGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=complex, copy=True)
        if v.shape != (self.grid.n_sigma,):
            raise ConfigurationError(
                f"values length {v.shape} does not match grid n_sigma={self.grid.n_sigma}")
        object.__setattr__(self, "values", _readonly(v))

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_callable(cls, grid: SigmaGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "GridFn":
        return cls(grid, np.asarray(fn(grid.sigma), dtype=complex))

    @classmethod
    def zeros(cls, grid: SigmaGrid) -> "GridFn":
        return cls(grid, np.zeros(grid.n_sigma, dtype=complex))

    # ---- real view -----------------------------------------------------

    def real_values(self, tol: float = REALNESS_TOL) -> np.ndarray:
        """Return the real part, asserting the imaginary part is negligible."""
        scale = max(1.0, float(np.max(np.abs(self.values))))
        worst = float(np.max(np.abs(self.values.imag)))
        if worst > tol * scale:
            raise EvaluationError(
                f"field expected real, max |imag| = {worst:.3e} exceeds {tol:.1e}*scale")
        return self.values.real.copy()

    # ---- algebra (pointwise) --------------------------------------------

    def _check_same_grid(self, other: "GridFn") -> None:
        if self.grid != other.grid:
            raise ConfigurationError("grid mismatch between operands")

    def __add__(self, other: Union["GridFn", float, complex]) -> "GridFn":
        if isinstance(other, GridFn):
            self._check_same_grid(other)
            return GridFn(self.grid, self.values + other.values)
        return GridFn(self.grid, self.values + other)

    __radd__ = __add__

    def __sub__(self, other: Union["GridFn", float, complex]) -> "GridFn":
        if isinstance(other, GridFn):
            self._check_same_grid(other)
            return GridFn(self.grid, self.values - other.values)
        return GridFn(self.grid, self.values - other)

    def __rsub__(self, other: Union[float, complex]) -> "GridFn":
        return GridFn(self.grid, other - self.values)

    def __mul__(self, other: Union["GridFn", float, complex]) -> "GridFn":
        if isinstance(other, GridFn):
            self._check_same_grid(other)
            return GridFn(self.grid, self.values * other.values)
        return GridFn(self.grid, self.values * other)

    __rmul__ = __mul__

    def __neg__(self) -> "GridFn":
        return GridFn(self.grid, -self.values)


@dataclass(frozen=True)
class Spectrum:
    """Transform coefficients indexed by the grid frequencies zeta_k
    (FFT ordering, matching ``grid.zeta``)."""

    grid: SigmaGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=complex, copy=True)
        if c.shape != (self.grid.n_sigma,):
            raise ConfigurationError(
                f"coeffs length {c.shape} does not match grid n_sigma={self.grid.n_sigma}")
        object.__setattr__(self, "coeffs", _readonly(c))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def to_spectrum(f: GridFn) -> Spectrum:
    """Forward transform onto the orthonormal periodic basis."""
    g = f.grid
    coeffs = (math.sqrt(2.0 * g.L) / g.n_sigma) * g._phase * np.fft.fft(f.values)
    return Spectrum(g, coeffs)


def to_gridfn(s: Spectrum) -> GridFn:
    """Inverse transform; exact inverse of :func:`to_spectrum`."""
    g = s.grid
    vals = (g.n_sigma / math.sqrt(2.0 * g.L)) * np.fft.ifft(g._phase * s.coeffs)
    return GridFn(g, vals)


def sobolev_norm(f: GridFn, s: float) -> float:
    """Periodic Sobolev norm (sum_k <zeta_k>^{2s} |fhat_k|^2)^{1/2},
    <zeta> = sqrt(1 + zeta^2).  Equals the L2 norm at s = 0."""
    if not (-4.0 <= s <= 8.0):
        raise DomainError(f"sobolev order s={s} outside supported range [-4, 8]")
    coeffs = to_spectrum(f).coeffs
    w = (1.0 + f.grid.zeta**2) ** s
    return float(np.sqrt(np.sum(w * np.abs(coeffs) ** 2)))


def apply_multiplier(f: GridFn, symbol: Callable[[np.ndarray], np.ndarray]) -> GridFn:
    """Apply the Fourier multiplier fhat_k -> symbol(zeta_k) * fhat_k."""
    g = f.grid
    vals = np.asarray(symbol(g.zeta), dtype=complex)
    if vals.shape == ():
        vals = np.full(g.n_sigma, complex(vals))
    if vals.shape != (g.n_sigma,):
        raise ConfigurationError("symbol evaluation has wrong length")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise EvaluationError(
            f"multiplier symbol not finite at zeta_k={g.zeta[k]:.6g} (index {k})")
    coeffs = to_spectrum(f).coeffs * vals
    return to_gridfn(Spectrum(g, coeffs))


def derivative(f: GridFn, order: int = 1) -> GridFn:
    """Spectral sigma-derivative of the given order."""
    if order < 0:
        raise DomainError("derivative order must be nonnegative")
    return apply_multiplier(f, lambda z: (1j * z) ** order)


def l2_norm(f: GridFn) -> float:
    """L2 norm over one period, delta * sum |f_j|^2 summed exactly in
    spectral space."""
    return sobolev_norm(f, 0.0)


# ---------------------------------------------------------------------------
# log-radial pullback norm comparison
# ---------------------------------------------------------------------------

def _sigma_derivatives(f: GridFn, m: int) -> list[np.ndarray]:
    """[f, f', .., f^(m)] as value arrays (spectral derivatives)."""
    out = [f.values.copy()]
    for k in range(1, m + 1):
        out.append(derivative(f, k).values)
    return out


# Stirling numbers of the second kind S(m, k) for m <= 3: the chain rule for
# sigma = -ln r gives (d/dsigma)^m = (-1)^m sum_k S(m,k) r^k (d/dr)^k.
_STIRLING2 = {
    1: {1: 1},
    2: {1: 1, 2: 1},
    3: {1: 1, 2: 3, 3: 1},
}


def pullback_norm_check(F: GridFn, m: int) -> tuple[float, float]:
    """Compare the two natural order-m norms of a field given on the
    log-image grid r_j = exp(-sigma_j).

    Returns ``(lhs, rhs)`` where lhs is the H^m norm in the sigma variable
    of f(sigma) = F(exp(-sigma)) and rhs is the radially weighted norm
    (sum_{k=0}^m integral r^{2k-1} |d^k F / dr^k|^2 dr)^{1/2}.  For m = 1 the
    two agree identically (exact change of variables); for m = 2, 3 they are
    equivalent with a modest constant.
    """
    if m not in (1, 2, 3):
        raise DomainError(f"pullback comparison supports m in {{1,2,3}}, got {m}")
    g = F.grid
    dsig = _sigma_derivatives(F, m)

    lhs_sq = 0.0
    for k in range(0, m + 1):
        lhs_sq += g.delta * float(np.sum(np.abs(dsig[k]) ** 2))

    # radial derivatives via the inverse chain rule: collecting
    # r^k F^(k) from the sigma-derivatives order by order.
    r = g.r
    rkFk = [dsig[0]]  # r^0 F
    # invert the triangular Stirling relation: d_sigma^m f = (-1)^m sum S(m,k) r^k F^(k)
    for order in range(1, m + 1):
        acc = ((-1.0) ** order) * dsig[order]
        for k in range(1, order):
            acc = acc - _STIRLING2[order][k] * rkFk[k]
        rkFk.append(acc)  # this is r^order F^(order)

    rhs_sq = 0.0
    for k in range(0, m + 1):
        # integral r^{2k-1} |F^(k)|^2 dr = integral r^{2k} |F^(k)|^2 dsigma
        integrand = np.abs(rkFk[k]) ** 2  # |r^k F^(k)|^2 = r^{2k} |F^(k)|^2
        rhs_sq += g.delta * float(np.sum(integrand))
    return math.sqrt(lhs_sq), math.sqrt(rhs_sq)
