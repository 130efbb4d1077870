"""Variable-profile Dirichlet-Neumann operator through the strip problem.

After the log-radial change of variables the harmonic extension into a
perturbed cone solves a degenerate elliptic problem on the half-open strip
(sigma, y) in R x (0, 1]:

    -div(A grad v) + gamma v = 0,      A = sin(y eta) [[eta, -y eta_s],
                                                       [-y eta_s, (1+y^2 eta_s^2)/eta]],
    gamma = eta sin(y eta) / 4,        eta = eta(sigma), eta_s = d eta / d sigma,

with Dirichlet data phi on y = 1 and no condition on y = 0 where A vanishes
(the axis is a natural boundary).  det A = sin^2(y eta) identically and the
quadratic form satisfies V^T A V >= y * l(eta) |V|^2 with the explicit
profile constant l computed by :func:`sobolev_functionals`.

Discretization: spectral collocation in sigma (periodic, even node count)
composed with a piecewise-linear finite-volume energy in y on cell centers
y_j = (j - 1/2)/n_y.  The discrete energy sums segment terms between
consecutive centers (midpoint coefficient evaluation) plus a top half
segment [1 - dy/2, 1] that couples the last row to the boundary data.  The
symmetric positive definite system is solved without a matrix by conjugate
gradients preconditioned by the exact cone at theta* (Concus & Golub 1973).

The boundary operator comes out two independent ways: a one-sided
second-order collocation stencil for dv/dy at y = 1 (reported), and the
variational flux obtained by differentiating the discrete energy with
respect to the boundary data (diagnostic).  Their relative gap is recorded
as ``residual_norm`` on the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .conical import ConeAngle, sinc
from .errors import DomainError, EvaluationError
from .grid import GridFn, SigmaGrid, dsigma_values, sobolev_norm

__all__ = [
    "ConeProfile",
    "StripGrid",
    "StripField",
    "Coefficients",
    "DNResult",
    "assemble_coefficients",
    "dn_general",
    "sobolev_functionals",
]


@dataclass(frozen=True)
class ConeProfile:
    """Cone opening profile eta(sigma) = theta* + eta_tilde(sigma)."""

    theta_star: ConeAngle
    eta_tilde: GridFn

    def __post_init__(self) -> None:
        tilde = self.eta_tilde.values
        sup = float(np.max(np.abs(tilde)))
        th = self.theta_star.theta_star
        if sup >= min(th, np.pi - th):
            raise DomainError(
                f"profile perturbation reaches {sup:.6g}, must stay below "
                f"min(theta*, pi - theta*) = {min(th, np.pi - th):.6g}")
        eta = th + tilde
        eta_s = dsigma_values(self.grid, tilde)
        eta.setflags(write=False)
        eta_s.setflags(write=False)
        object.__setattr__(self, "_eta", eta)
        object.__setattr__(self, "_eta_sigma", eta_s)

    @property
    def grid(self) -> SigmaGrid:
        return self.eta_tilde.grid

    @property
    def eta(self) -> np.ndarray:
        return self._eta

    @property
    def eta_sigma(self) -> np.ndarray:
        return self._eta_sigma

    @property
    def sup_tilde(self) -> float:
        return float(np.max(np.abs(self.eta_tilde.values)))

    @property
    def sup_slope(self) -> float:
        return float(np.max(np.abs(self.eta_sigma)))

    @classmethod
    def flat(cls, grid: SigmaGrid, theta_star: ConeAngle) -> "ConeProfile":
        return cls(theta_star=theta_star, eta_tilde=GridFn.zeros(grid))


@dataclass(frozen=True)
class StripGrid:
    """Tensor grid: spectral sigma nodes times n_y cell centers in y."""

    sigma: SigmaGrid
    n_y: int

    def __post_init__(self) -> None:
        if self.n_y < 16:
            raise DomainError(f"n_y must be at least 16, got {self.n_y}")

    @property
    def delta_y(self) -> float:
        return 1.0 / self.n_y

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_y) + 0.5) / self.n_y

    @property
    def faces(self) -> np.ndarray:
        return np.arange(self.n_y + 1) / self.n_y


@dataclass(frozen=True)
class StripField:
    """Real field sampled on the strip: values[i, j] at (sigma_i, y_j).

    Ordinarily the columns sit on the cell centers of ``grid``; fields
    produced by evaluating at explicit angular stations carry those stations
    in ``y_samples`` instead (fractions of the opening angle).
    """

    grid: StripGrid
    values: np.ndarray = field(repr=False)
    y_samples: np.ndarray | None = None

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float, copy=True)
        if self.y_samples is not None:
            ys = np.array(self.y_samples, dtype=float, copy=True)
            if vals.shape != (self.grid.sigma.n_sigma, ys.size):
                raise DomainError(
                    f"values shape {vals.shape} does not match "
                    f"({self.grid.sigma.n_sigma}, {ys.size})")
            ys.setflags(write=False)
            object.__setattr__(self, "y_samples", ys)
        elif vals.shape != (self.grid.sigma.n_sigma, self.grid.n_y):
            raise DomainError(
                f"values shape {vals.shape} does not match grid "
                f"({self.grid.sigma.n_sigma}, {self.grid.n_y})")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def ys(self) -> np.ndarray:
        return self.y_samples if self.y_samples is not None else self.grid.centers

    def boundary_trace(self) -> np.ndarray:
        """Field at y = 1: one-sided second-order extrapolation from the top
        three cell centers, or the y = 1 column when stations include it."""
        if self.y_samples is not None:
            if abs(float(self.y_samples[-1]) - 1.0) < 1e-12:
                return np.array(self.values[:, -1])
            raise DomainError("stations do not include y = 1; no trace defined")
        v = self.values
        return (15.0 * v[:, -1] - 10.0 * v[:, -2] + 3.0 * v[:, -3]) / 8.0


@dataclass(frozen=True)
class Coefficients:
    """The discrete energy's coefficients, one column per energy segment.

    Segment m < n_y - 1 joins the cell centers m and m + 1 across the face
    y = (m + 1) dy; the last segment is the top half segment from the last
    center to the data on y = 1.  ``a11``, ``a12``, ``a22`` (n_sigma, n_y)
    are the diffusion matrix entries at the segment midpoints (the faces,
    then y = 1 - dy/4); ``gap`` (n_y,) holds the segment lengths (dy, then
    dy/2); ``weight`` (n_sigma, n_y) is the zeroth-order term
    2 dsigma dy gamma on the cells.
    """

    grid: StripGrid
    a11: np.ndarray = field(repr=False)
    a12: np.ndarray = field(repr=False)
    a22: np.ndarray = field(repr=False)
    gap: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)


def assemble_coefficients(profile: ConeProfile, grid: StripGrid) -> Coefficients:
    """Evaluate the diffusion matrix at the segment midpoints and the
    zeroth-order weight on the centers.  det A = sin^2(y eta) holds
    identically."""
    if profile.grid != grid.sigma:
        raise DomainError("profile and strip grid live on different sigma grids")
    n_y, dy = grid.n_y, grid.delta_y
    eta = profile.eta[:, None]
    eta_s = profile.eta_sigma[:, None]
    y = np.append(grid.faces[1:n_y], 1.0 - dy / 4.0)[None, :]
    s = np.sin(y * eta)
    gap = np.full(n_y, dy)
    gap[-1] = dy / 2.0
    gamma = eta * np.sin(grid.centers[None, :] * eta) / 4.0
    return Coefficients(grid=grid, a11=s * eta, a12=-s * y * eta_s,
                        a22=s * (1.0 + (y * eta_s) ** 2) / eta, gap=gap,
                        weight=2.0 * grid.sigma.delta * dy * gamma)


#: PCG stops at this recurrence residual relative to the right-hand side: a
#: stop at 1e-11 leaves the solution linear in the data only to about 1e-10.
CG_TARGET = 1e-14
#: Bound on the residual recomputed after PCG, relative to the right-hand side.
RESIDUAL_TOL = 1e-10
#: PCG iteration cap; at (256, 128) the steepest profiles, at 0.95 of the
#: ConeProfile limit with slopes up to 7.5, took at most 620 iterations.
CG_MAX_ITER = 2000


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product by numpy's pairwise sum, the same under any BLAS."""
    return float(np.sum(a * b))


def _norm(a: np.ndarray) -> float:
    return _dot(a, a) ** 0.5


def _energy_grad(coeffs: Coefficients, v: np.ndarray,
                 phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the discrete energy in the cell values v (n_sigma, n_y)
    and in the data phi on y = 1.  Segment m joins column m to column m + 1
    of [v, phi]; the sigma derivative is antisymmetric, so D^T = -D."""
    sgrid = coeffs.grid.sigma
    a11, a12, a22, gap = coeffs.a11, coeffs.a12, coeffs.a22, coeffs.gap
    rows = np.column_stack([v, phi])
    va, vb = rows[:, :-1], rows[:, 1:]
    gs = dsigma_values(sgrid, 0.5 * (va + vb))
    gy = (vb - va) / gap
    along = -sgrid.delta * gap * dsigma_values(sgrid, a11 * gs + a12 * gy)
    across = 2.0 * sgrid.delta * (a12 * gs + a22 * gy)
    # each segment's gradient in its lower and in its upper end value
    lower, upper = along - across, along + across
    grad = lower + coeffs.weight * v
    grad[:, 1:] += upper[:, :-1]
    return grad, upper[:, -1]


@lru_cache(maxsize=8)
def _cone_factors(theta_star: ConeAngle, grid: StripGrid
                  ) -> tuple[list[np.ndarray], np.ndarray]:
    """Thomas factors of the operator on the exact cone at theta*, where
    a12 = 0 and A is sigma-independent, so each rfft mode is a tridiagonal
    system in y.  Multipliers and inverse pivots, one row per y level, each
    entry repeated for the real and the imaginary part of its mode."""
    coeffs = assemble_coefficients(ConeProfile.flat(grid.sigma, theta_star), grid)
    ds, gap = grid.sigma.delta, coeffs.gap
    # segment m adds [[c + e, c - e], [c - e, c + e]] to rows m, m + 1; the
    # Nyquist mode's frequency is zero, as dsigma_values drops that mode
    zeta2 = grid.sigma.rfft_zeta ** 2
    zeta2[-1] = 0.0
    c = np.outer(ds * gap * coeffs.a11[0] / 2.0, zeta2)
    e = (2.0 * ds * coeffs.a22[0] / gap)[:, None]
    diag = c + e + coeffs.weight[0][:, None]
    diag[1:] += (c + e)[:-1]
    off = (c - e)[:-1]
    piv = [diag[0]]
    for d, o in zip(diag[1:], off):
        piv.append(d - o * o / piv[-1])
    piv = np.array(piv)
    mult, inv_piv = (np.repeat(f, 2, axis=1) for f in (off / piv[:-1], 1.0 / piv))
    mult.setflags(write=False)
    inv_piv.setflags(write=False)
    return list(mult), inv_piv


def _cone_solve(factors: tuple, r: np.ndarray) -> np.ndarray:
    """Apply the exact-cone inverse to r (n_sigma, n_y)."""
    mult, inv_piv = factors
    x = np.fft.rfft(r, axis=0).T.copy()
    xr = x.view(float)
    rows = list(xr)
    for m, row, prev in zip(mult, rows[1:], rows):
        row -= m * prev
    xr *= inv_piv
    for m, row, nxt in zip(reversed(mult), rows[-2::-1], rows[:0:-1]):
        row -= m * nxt
    return np.fft.irfft(x.T, n=r.shape[0], axis=0)


@dataclass(frozen=True)
class DNResult:
    """Boundary operator output and its trace decomposition.

    g_of_phi       the DN value {(1 + eta_s^2)/eta dv/dy - eta_s dphi/dsigma}
                   extracted as the variational flux of the discrete energy
                   (second order in the cell size)
    b_normal       dv/dy / eta at y = 1, reconstructed from g_of_phi so the
                   trace identity g + v_tangential eta_s - b_normal = 0 holds
                   to rounding
    v_tangential   dphi/dsigma - b_normal * eta_s
    field          the interior solution
    residual_norm  relative gap between the variational flux and an
                   independent one-sided collocation stencil for dv/dy
                   (diagnostic; first order, so it shrinks like the cell
                   size on refinement)
    iterations     conjugate-gradient iterations of the strip solve
    """

    g_of_phi: GridFn
    b_normal: GridFn
    v_tangential: GridFn
    field: StripField
    residual_norm: float
    iterations: int


def dn_general(profile: ConeProfile, phi: GridFn, grid: StripGrid,
               source: StripField | None = None) -> DNResult:
    """DN operator for a perturbed profile via the strip solve.

    ``source`` (cell-centered) adds a right-hand side f to the equation
    -div(A grad v) + gamma v = f.  Conjugate gradients, preconditioned by the
    exact cone at theta*, run to ``CG_TARGET``; EvaluationError is raised at
    ``CG_MAX_ITER`` iterations, or when the residual recomputed from scratch
    exceeds ``RESIDUAL_TOL``.
    """
    if phi.grid != profile.grid:
        raise DomainError("boundary data and profile live on different grids")
    if grid.sigma != profile.grid:
        raise DomainError("strip grid and profile live on different sigma grids")
    phi_vals = phi.values
    sgrid, dy = grid.sigma, grid.delta_y
    forcing = np.zeros((sgrid.n_sigma, grid.n_y))
    if source is not None:
        if source.grid != grid or source.y_samples is not None:
            raise DomainError("source must be cell-centered on the same strip grid")
        forcing = 2.0 * sgrid.delta * dy * source.values

    coeffs = assemble_coefficients(profile, grid)
    v = np.zeros_like(forcing)
    grad, data_grad = _energy_grad(coeffs, v, phi_vals)
    r = forcing - grad
    scale = _norm(r)
    iterations = 0
    if scale > 0.0:
        factors = _cone_factors(profile.theta_star, grid)
        no_data = np.zeros(sgrid.n_sigma)
        p = z = _cone_solve(factors, r)
        rz = _dot(r, z)
        for iterations in range(1, CG_MAX_ITER + 1):
            q = _energy_grad(coeffs, p, no_data)[0]
            pq = _dot(p, q)
            if not pq > 0.0:
                raise EvaluationError(
                    f"discrete operator lost positive definiteness: p.Ap = {pq:.3e}")
            alpha = rz / pq
            v += alpha * p
            r -= alpha * q
            if _norm(r) <= CG_TARGET * scale:
                break
            z = _cone_solve(factors, r)
            rz, rz_old = _dot(r, z), rz
            p = z + (rz / rz_old) * p
        grad, data_grad = _energy_grad(coeffs, v, phi_vals)
        rel = _norm(forcing - grad) / scale
        if _norm(r) > CG_TARGET * scale:
            raise EvaluationError(
                f"strip solve reached the cap of {iterations} iterations "
                f"with residual {rel:.3e}")
        if rel > RESIDUAL_TOL:
            raise EvaluationError(
                f"strip solve residual {rel:.3e} exceeds tolerance {RESIDUAL_TOL:.1e}")

    # variational flux: derivative of the discrete energy in the data gives
    # sin(eta) G phi directly (the scheme's own Neumann functional)
    eta, eta_s = profile.eta, profile.eta_sigma
    g_vals = data_grad / (2.0 * sgrid.delta) / np.sin(eta)

    # trace decomposition consistent with the reported operator
    dphi = dsigma_values(sgrid, phi_vals)
    dvy = (g_vals + eta_s * dphi) * eta / (1.0 + eta_s**2)
    b_vals = dvy / eta
    vt_vals = dphi - b_vals * eta_s

    # independent extraction: one-sided second-order stencil for dv/dy at
    # y = 1 (exact on quadratics in y), pushed through the same formula
    dvy_stencil = (8.0 * phi_vals - 9.0 * v[:, -1] + v[:, -2]) / (3.0 * dy)
    g_stencil = (1.0 + eta_s**2) / eta * dvy_stencil - eta_s * dphi
    residual = _norm(g_vals - g_stencil) / max(_norm(g_vals), 1e-300)

    return DNResult(
        g_of_phi=GridFn(sgrid, g_vals),
        b_normal=GridFn(sgrid, b_vals),
        v_tangential=GridFn(sgrid, vt_vals),
        field=StripField(grid=grid, values=v),
        residual_norm=residual,
        iterations=iterations,
    )


def sobolev_functionals(profile: ConeProfile, s: float) -> tuple[float, float]:
    """Profile size U_s and coercivity floor l.

    U_s is the largest H^{s-1/2} norm among the perturbation, its slope, and
    their pairwise products; l is the explicit positive constant with
    V^T A V >= y l |V|^2.  Requires s > 5/2.
    """
    if not s > 2.5:
        raise DomainError(f"regularity index must exceed 5/2, got {s}")
    if s - 0.5 > 8.0:
        raise DomainError(f"regularity index too large for the norm range, got {s}")
    g = profile.grid
    tilde = profile.eta_tilde
    slope = GridFn(g, profile.eta_sigma)
    entries = (tilde, slope, tilde * tilde, tilde * slope, slope * slope)
    u_s = max(sobolev_norm(e, s - 0.5) for e in entries)

    th = profile.theta_star.theta_star
    sup_t = profile.sup_tilde
    sup_d = profile.sup_slope
    margin = th - sup_t
    sinc_val = float(sinc(sup_t + th))
    floor = sinc_val * min(0.5,
                           margin**2 / (1.0 + 2.0 * sup_d**2),
                           margin**2 / 4.0)
    return u_s, floor
