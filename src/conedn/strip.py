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
gradients preconditioned by the operator's sigma average: a12 dropped and
a11, a22 and gamma replaced by their means over sigma, a separable operator
(Concus & Golub 1973) that on an exact cone is the operator itself.

Layout: the solver works on sigma-contiguous (n_y, n_sigma) arrays, one row
per y level, with the data on y = 1 appended as a last row, so every
transform runs along the contiguous axis.  One operator, ``_StripOperator``,
built once per solve, holds the segment midpoints and lengths, the
coefficient arrays with dsigma, the segment lengths and 2 dsigma folded in,
the derivative symbols and the Thomas factors of the sigma average.  Its
gradient gives the initial residual, each product, the recomputed residual
and the variational flux.  A PCG iteration makes 5 real FFTs: the gradient
is handed the rfft of the search direction, which PCG carries beside it,
and makes 3; the preconditioner solve makes 2.  A solve of k iterations
makes 5 k + 8.  The result's ``StripField`` (:mod:`conedn.grid`) holds the
cells as (n_sigma, n_y) columns, its stations the cell centers.

The boundary operator comes out two independent ways: the variational flux
obtained by differentiating the discrete energy with respect to the boundary
data (reported), and a one-sided second-order collocation stencil for dv/dy
at y = 1 (diagnostic).  Their relative gap is recorded as ``residual_norm``
on the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conical import ConeAngle, sinc
from .errors import DomainError, EvaluationError
from .grid import GridFn, SigmaGrid, StripField, binary_scaled, dsigma_values, sobolev_norm

__all__ = [
    "ConeProfile",
    "StripGrid",
    "DNResult",
    "dn_general",
    "sobolev_functionals",
]


@dataclass(frozen=True, eq=False)
class ConeProfile:
    """Cone opening profile eta(sigma) = theta* + eta_tilde(sigma)."""

    theta_star: ConeAngle
    eta_tilde: GridFn

    def __post_init__(self) -> None:
        tilde = self.eta_tilde.values
        sup = float(np.max(np.abs(tilde)))
        th = self.theta_star.theta_star
        if not sup < min(th, np.pi - th):
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


#: the most cells n_sigma * n_y a strip grid may have: 4 times a (2048, 512)
#: grid; a solve peaks at about 21 float64 arrays of this size (a test holds
#: it below 24), about 0.7 GB
MAX_CELLS = 2**22


@dataclass(frozen=True)
class StripGrid:
    """Tensor grid: spectral sigma nodes times n_y cell centers in y."""

    sigma: SigmaGrid
    n_y: int

    def __post_init__(self) -> None:
        if self.n_y < 16:
            raise DomainError(f"n_y must be at least 16, got {self.n_y}")
        cells = self.sigma.n_sigma * self.n_y
        if cells > MAX_CELLS:
            raise DomainError(f"n_sigma * n_y = {cells} exceeds MAX_CELLS = {MAX_CELLS}")

    @property
    def delta_y(self) -> float:
        return 1.0 / self.n_y

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_y) + 0.5) / self.n_y

    @property
    def faces(self) -> np.ndarray:
        return np.arange(self.n_y + 1) / self.n_y


#: PCG stops at this recurrence residual relative to the right-hand side: a
#: stop at 1e-11 leaves the solution linear in the data only to about 1e-10.
CG_TARGET = 1e-14
#: Bound on the residual recomputed after PCG, relative to the right-hand side.
RESIDUAL_TOL = 1e-10
#: PCG iteration cap; at (256, 128) the steepest profiles, at 0.95 of the
#: ConeProfile limit with slopes up to 7.5, took at most 323 iterations.
CG_MAX_ITER = 2000


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product by numpy's pairwise sum, the same under any BLAS."""
    return float(np.sum(a * b))


class _StripOperator:
    """The discrete energy of one profile on one strip grid: its gradient
    and the inverse of its sigma average.  Segment m joins rows m and m + 1
    at ``y[m]`` with length ``gap[m]``.  With gs the sigma derivative of a
    segment's average and dv its rise, the sigma flux is -ds gap (a11 gs +
    a12 dv/gap), differentiated once more, the y flux 2 ds (a12 gs + a22
    dv/gap), whose a12 term is -2 s_dv gs, and ``weight`` 2 ds dy gamma."""

    def __init__(self, profile: ConeProfile, grid: StripGrid) -> None:
        ds, dy, n_y, n = grid.sigma.delta, grid.delta_y, grid.n_y, grid.sigma.n_sigma
        self.y = np.append(grid.faces[1:n_y], 1.0 - dy / 4.0)
        self.gap = np.append(np.full(n_y - 1, dy), dy / 2.0)
        y, gap = self.y[:, None], self.gap[:, None]
        eta, eta_s = profile.eta, profile.eta_sigma
        s = np.sin(y * eta)
        # A = s [[eta, -y eta_s], [-y eta_s, (1 + y^2 eta_s^2)/eta]]
        self.s_gs = -ds * gap * (s * eta)
        self.s_dv = -ds * (-s * y * eta_s)
        self.y_dv = 2.0 * ds * (s * (1.0 + (y * eta_s) ** 2) / eta) / gap
        self.weight = 2.0 * ds * dy * (eta * np.sin(grid.centers[:, None] * eta) / 4.0)
        # the rfft frequencies with the Nyquist mode's set to zero:
        # dsigma_values drops that mode, so the derivative is antisymmetric
        zeta = np.array(grid.sigma.rfft_zeta)
        zeta[-1] = 0.0
        self.dsigma, self.half_dsigma = 1j * zeta, 0.5j * zeta
        # the sigma average (s_gs, y_dv and weight averaged, a12 dropped) is
        # tridiagonal in y per rfft mode: segment m adds [[c + e, c - e],
        # [c - e, c + e]] to rows m, m + 1.  Its Thomas multipliers and
        # inverse pivots repeat each entry for a mode's real and imaginary part
        c = np.outer(-self.s_gs.mean(axis=1) / 2.0, zeta ** 2)
        e = self.y_dv.mean(axis=1)[:, None]
        diag = c + e + self.weight.mean(axis=1)[:, None]
        diag[1:] += (c + e)[:-1]
        off = (c - e)[:-1]
        piv = [diag[0]]
        for d, o in zip(diag[1:], off):
            piv.append(d - o * o / piv[-1])
        piv = np.array(piv)
        self.mult = list(np.repeat(off / piv[:-1], 2, axis=1))
        self.inv_piv = np.repeat(1.0 / piv, 2, axis=1)
        self.gs, self.dv, self.work = (np.empty((n_y, n)) for _ in range(3))

    def gradient(self, rows: np.ndarray, rows_hat: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The energy's gradient in the cell values (n_y, n_sigma), in a work
        array that the next call overwrites, its gradient in the data
        (n_sigma,), and the data's sigma derivative.  ``rows`` holds the
        cell values and the data as its last row, ``rows_hat`` its rfft."""
        gs, dv, work = self.gs, self.dv, self.work
        n = rows.shape[1]
        # the rows' half sigma derivatives: neighbour sums are the segment
        # averages' derivatives
        half = np.fft.irfft(rows_hat * self.half_dsigma, n=n)
        dphi = 2.0 * half[-1]
        np.add(half[:-1], half[1:], out=gs)
        np.subtract(rows[1:], rows[:-1], out=dv)
        flux = np.multiply(self.s_gs, gs, out=half[:-1])
        flux += np.multiply(self.s_dv, dv, out=work)
        flux_hat = np.fft.rfft(flux)
        flux_hat *= self.dsigma
        along = np.fft.irfft(flux_hat, n=n)
        across = np.multiply(self.s_dv, gs, out=half[:-1])
        across *= -2.0
        across += np.multiply(self.y_dv, dv, out=dv)
        # each segment's gradient in its lower and in its upper end value
        grad = np.subtract(along, across, out=gs)
        grad += np.multiply(self.weight, rows[:-1], out=dv)
        upper = np.add(along, across, out=along)
        grad[1:] += upper[:-1]
        return grad, upper[-1], dphi

    def precondition(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sigma average's inverse applied to r (n_y, n_sigma): the
        solution and its rfft along sigma.  The Thomas sweep runs down the
        rows of the transform, one y level each."""
        x = np.fft.rfft(r)
        xr = x.view(float)
        rows, tmp = list(xr), np.empty(xr.shape[1])
        for m, row, prev in zip(self.mult, rows[1:], rows):
            np.subtract(row, np.multiply(m, prev, out=tmp), out=row)
        xr *= self.inv_piv
        for m, row, nxt in zip(reversed(self.mult), rows[-2::-1], rows[:0:-1]):
            np.subtract(row, np.multiply(m, nxt, out=tmp), out=row)
        return np.fft.irfft(x, n=r.shape[1]), x


@dataclass(frozen=True, eq=False)
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


def dn_general(profile: ConeProfile, phi: GridFn, grid: StripGrid) -> DNResult:
    """DN operator for a perturbed profile via the strip solve.

    A non-finite value in ``phi`` raises DomainError.  Data 2^k times larger
    give outputs exactly 2^k times larger while these stay in the float range.
    Conjugate gradients, preconditioned by the operator's sigma average (an
    exact cone converges in one iteration), run to ``CG_TARGET``;
    EvaluationError is raised at ``CG_MAX_ITER`` iterations, or when the
    residual recomputed from scratch exceeds ``RESIDUAL_TOL``.
    """
    if phi.grid != profile.grid:
        raise DomainError("boundary data and profile live on different grids")
    if grid.sigma != profile.grid:
        raise DomainError("strip grid and profile live on different sigma grids")
    if not np.all(np.isfinite(phi.values)):
        raise DomainError("boundary data phi holds a non-finite value")
    sgrid, dy, n_y = grid.sigma, grid.delta_y, grid.n_y
    # solve for the data scaled by binary_scaled, so the squared sums of
    # PCG neither overflow nor underflow; the outputs are scaled back by 2^e
    phi_vals, e = binary_scaled(phi.values)

    op = _StripOperator(profile, grid)
    # the cell values with the data as the last row, v a view of the cells
    rows = np.zeros((n_y + 1, sgrid.n_sigma))
    rows[-1] = phi_vals
    v = rows[:-1]
    rows_hat = np.zeros((n_y + 1, sgrid.n_sigma // 2 + 1), dtype=complex)
    rows_hat[-1] = np.fft.rfft(phi_vals)
    grad, data_grad, dphi = op.gradient(rows, rows_hat)
    # 0.0 - grad, not -grad: a zero entry stays +0.0
    r = 0.0 - grad
    scale = _dot(r, r) ** 0.5
    iterations = 0
    if scale > 0.0:
        # the search direction with a zero data row, and its transform
        p_rows, p_hat = np.zeros_like(rows), np.zeros_like(rows_hat)
        p, p_cells_hat = p_rows[:-1], p_hat[:-1]
        z, z_hat = op.precondition(r)
        p[...], p_cells_hat[...] = z, z_hat
        rz = _dot(r, z)
        for iterations in range(1, CG_MAX_ITER + 1):
            q = op.gradient(p_rows, p_hat)[0]
            pq = _dot(p, q)
            if not pq > 0.0:
                raise EvaluationError(
                    f"discrete operator lost positive definiteness: p.Ap = {pq:.3e}")
            alpha = rz / pq
            v += alpha * p
            r -= alpha * q
            if _dot(r, r) ** 0.5 <= CG_TARGET * scale:
                break
            z, z_hat = op.precondition(r)
            rz, rz_old = _dot(r, z), rz
            beta = rz / rz_old
            p *= beta
            p += z
            p_cells_hat *= beta
            p_cells_hat += z_hat
        grad, data_grad, dphi = op.gradient(rows, np.fft.rfft(rows))
        rel = _dot(grad, grad) ** 0.5 / scale
        if _dot(r, r) ** 0.5 > CG_TARGET * scale:
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
    dvy = (g_vals + eta_s * dphi) * eta / (1.0 + eta_s**2)
    b_vals = dvy / eta
    vt_vals = dphi - b_vals * eta_s

    # independent extraction: one-sided second-order stencil for dv/dy at
    # y = 1 (exact on quadratics in y), pushed through the same formula
    dvy_stencil = (8.0 * phi_vals - 9.0 * v[-1] + v[-2]) / (3.0 * dy)
    g_stencil = (1.0 + eta_s**2) / eta * dvy_stencil - eta_s * dphi
    gap = g_vals - g_stencil
    residual = _dot(gap, gap) ** 0.5 / max(_dot(g_vals, g_vals) ** 0.5, 1e-300)

    return DNResult(
        g_of_phi=GridFn(sgrid, np.ldexp(g_vals, e)),
        b_normal=GridFn(sgrid, np.ldexp(b_vals, e)),
        v_tangential=GridFn(sgrid, np.ldexp(vt_vals, e)),
        field=StripField(sgrid, grid.centers, np.ldexp(v.T, e)),
        residual_norm=residual,
        iterations=iterations,
    )


def sobolev_functionals(profile: ConeProfile, s: float) -> tuple[float, float]:
    """Profile size U_s and coercivity floor l.

    U_s is the largest H^{s-1/2} norm among the perturbation, its slope, and
    their pairwise products; l is the explicit positive constant with
    V^T A V >= y l |V|^2.  Requires s > 5/2; :func:`conedn.grid.sobolev_norm`
    refuses s - 1/2 beyond its range.
    """
    if not s > 2.5:
        raise DomainError(f"regularity index must exceed 5/2, got {s}")
    g = profile.grid
    tilde = profile.eta_tilde
    slope = GridFn(g, profile.eta_sigma)
    t, d = tilde.values, slope.values
    entries = (tilde, slope, GridFn(g, t * t), GridFn(g, t * d), GridFn(g, d * d))
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
