"""Physics layer in the original radial coordinates.

The library's interior machinery works on the half-strip in (sigma, y) with
the scaled unknown phi; this module converts back to the physical wedge:
surface angle Theta(r) = eta(-ln r), velocity-potential trace
psi(r) = e^{sigma/2} phi(sigma), and the physical boundary operator

    G[Theta](psi) = e^{5 sigma/2} { strip_dn(phi) - phi d_sigma(eta) / 2 }.

On top of the conversion sit the mean curvature of the rotated surface, the
squared electric field on the surface (exterior potential handled by the
same solver under the reflection theta -> pi - theta), the equilibrium field
strength of the conical stationary solution, and the first-order free
boundary right-hand sides.  No time stepping lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conical import ConeAngle, legendre_half, taylor_angle
from .errors import ConfigurationError, DomainError, EvaluationError
from .grid import GridFn, SigmaGrid, dsigma_values
from .strip import ConeProfile, DNResult, StripGrid, dn_general

__all__ = [
    "PhysicalParams",
    "SurfaceTheta",
    "to_strip_unknown",
    "to_physical_unknown",
    "unknown_round_trip_gap",
    "convert_dn",
    "mean_curvature",
    "equilibrium_constant",
    "electric_functional",
    "zakharov_rhs",
    "equilibrium_residual",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Material and field constants."""

    kappa: float          # surface tension
    rho: float            # density
    epsilon: float        # vacuum permittivity
    C: float              # field strength

    def __post_init__(self) -> None:
        if not (self.kappa > 0 and self.rho > 0 and self.epsilon > 0):
            raise ConfigurationError(
                "kappa, rho, epsilon must all be positive, got "
                f"({self.kappa}, {self.rho}, {self.epsilon})")
        if self.C == 0:
            raise ConfigurationError("field strength C must be nonzero")

    @classmethod
    def at_equilibrium(cls, kappa: float, rho: float, epsilon: float,
                       angle: ConeAngle | None = None) -> "PhysicalParams":
        """The constants with C = C*, the field strength of the conical
        stationary solution at ``angle`` (the Taylor angle when None):

            C* = -sqrt(kappa cot(theta*)) / (sqrt(epsilon) P^1_{1/2}(-cos theta*)),

        negative because cot(theta*) > 0 and P^1_{1/2}(-cos theta*) > 0 at
        the equilibrium opening angle.
        """
        if not (kappa > 0 and epsilon > 0):
            raise ConfigurationError(f"kappa, epsilon must be positive, got ({kappa}, {epsilon})")
        if angle is None:
            angle = taylor_angle()
        th = angle.theta_star
        cot = math.cos(th) / math.sin(th)
        if cot <= 0:
            raise DomainError("equilibrium constant defined for theta* < pi/2")
        _, p1 = legendre_half(th)
        if p1 <= 0:
            raise EvaluationError("associated Legendre value unexpectedly nonpositive")
        c_star = -math.sqrt(kappa * cot) / (math.sqrt(epsilon) * p1)
        return cls(kappa=kappa, rho=rho, epsilon=epsilon, C=c_star)


@dataclass(frozen=True)
class SurfaceTheta:
    """Axisymmetric surface angle Theta(r) carried on the log grid."""

    profile: ConeProfile

    @property
    def grid(self) -> SigmaGrid:
        return self.profile.grid

    @property
    def r(self) -> np.ndarray:
        return self.grid.r

    @property
    def theta_of_r(self) -> np.ndarray:
        """Theta(r_j) = eta(sigma_j)."""
        return self.profile.eta

    @property
    def d_r_theta(self) -> np.ndarray:
        """dTheta/dr on the log grid; chain rule d_sigma = -r d_r."""
        return -self.profile.eta_sigma / self.grid.r


def to_strip_unknown(psi: GridFn) -> GridFn:
    """phi(sigma) = e^{-sigma/2} psi(r)|_{r = e^{-sigma}}."""
    return GridFn(psi.grid, np.exp(-psi.grid.sigma / 2.0) * psi.values)


def to_physical_unknown(phi: GridFn) -> GridFn:
    """psi(r)|_{r = e^{-sigma}} = e^{sigma/2} phi(sigma); inverse of
    :func:`to_strip_unknown` to rounding."""
    return GridFn(phi.grid, np.exp(phi.grid.sigma / 2.0) * phi.values)


def unknown_round_trip_gap(phi: GridFn) -> float:
    """Sup of the change that a round trip through :func:`to_strip_unknown`
    and :func:`to_physical_unknown` makes to psi = to_physical_unknown(phi),
    relative to sup |psi|."""
    psi = to_physical_unknown(phi)
    back = to_physical_unknown(to_strip_unknown(psi))
    return (float(np.max(np.abs(back.values - psi.values)))
            / float(np.max(np.abs(psi.values))))


def convert_dn(profile: ConeProfile, dn: DNResult, phi: GridFn) -> GridFn:
    """Physical boundary operator from a strip result:

    G[Theta](psi)|_{r=e^{-sigma}} = e^{5 sigma/2} (strip_dn - phi eta_s / 2).
    """
    grid = profile.grid
    if phi.grid != grid or dn.g_of_phi.grid != grid:
        raise DomainError("profile, data, and strip result on different grids")
    vals = dn.g_of_phi.values - 0.5 * phi.values * profile.eta_sigma
    return GridFn(grid, np.exp(2.5 * grid.sigma) * vals)


def mean_curvature(surface: SurfaceTheta) -> GridFn:
    """Mean curvature of the rotated surface theta = Theta(r),

        H = d_r( r d_r Theta / (2 s) ) + d_r Theta / s - cot(Theta)/(2 r s),
        s = sqrt(1 + r^2 |d_r Theta|^2),

    evaluated through sigma-derivatives (r d_r Theta = -eta_s, d_r = -e^sigma
    d_sigma), which keeps r = 0 out of the arithmetic.
    """
    prof = surface.profile
    grid = prof.grid
    eta_s = prof.eta_sigma
    s = np.sqrt(1.0 + eta_s**2)
    inner = dsigma_values(grid, eta_s / (2.0 * s))
    vals = np.exp(grid.sigma) * (inner - eta_s / s
                                 - np.cos(prof.eta) / np.sin(prof.eta) / (2.0 * s))
    return GridFn(grid, vals)


def equilibrium_constant(params: PhysicalParams, angle: ConeAngle | None = None) -> float:
    """Field strength C* of the conical stationary solution for the kappa and
    epsilon of ``params`` (its C is not read); see
    :meth:`PhysicalParams.at_equilibrium`."""
    return PhysicalParams.at_equilibrium(params.kappa, params.rho, params.epsilon, angle).C


# P_{1/2}(-cos theta) magnitudes below this are rounding residue of the
# equilibrium root, not signal (the function has O(1) slope there).  Snapping
# them to zero makes the conical far field exact; otherwise the residue rides
# the periodized e^{-sigma} surface datum through the wrap and the e^{5s/2}
# conversion weight inflates it by ~1e8.
_ROOT_SNAP = 1e-13


def _legendre_pair_on_profile(prof: ConeProfile) -> tuple[np.ndarray, np.ndarray]:
    th = prof.eta
    p_half = np.empty_like(th)
    p1_half = np.empty_like(th)
    cache: dict[float, tuple[float, float]] = {}
    for j, t in enumerate(th):
        key = float(t)
        if key not in cache:
            cache[key] = legendre_half(key)
        p_half[j], p1_half[j] = cache[key]
    p_half[np.abs(p_half) <= _ROOT_SNAP] = 0.0
    return p_half, p1_half


def _exterior_dn(surface: SurfaceTheta, xi: GridFn, grid: StripGrid) -> GridFn:
    """Physical DN trace of the exterior harmonic with surface data xi(r).

    The wedge {Theta <= theta < pi} maps onto the interior geometry by the
    reflection theta -> pi - theta (profile pi - eta); the operator keeps its
    form and picks up one sign from the flipped angular direction.  The solve
    is exactly linear, so xi == 0 returns an exact zero.
    """
    prof = surface.profile
    ext = ConeProfile(theta_star=ConeAngle(math.pi - prof.theta_star.theta_star),
                      eta_tilde=GridFn(prof.grid, -prof.eta_tilde.values))
    phi_xi = to_strip_unknown(xi)
    res = dn_general(ext, phi_xi, grid)
    flipped = convert_dn(ext, res, phi_xi)
    return -flipped


def electric_functional(surface: SurfaceTheta, params: PhysicalParams,
                        grid: StripGrid) -> GridFn:
    """Squared electric field strength on the surface,

        |grad phi|^2|_{theta=Theta} = xi^2/(4 r^2)
            + ( r G[Theta](xi) + C r^{-1/2} P^1_{1/2}(-cos Theta) )^2
            - ( d_r xi - r^2 d_r Theta G[Theta](xi) )^2 / (1 + r^2 |d_r Theta|^2)

    with xi(r) = -C sqrt(r) P_{1/2}(-cos Theta(r)) and G[Theta] the exterior
    boundary operator.  On the exact equilibrium cone xi vanishes identically
    and the value reduces to C^2 |P^1_{1/2}(-cos theta*)|^2 / r.
    """
    prof = surface.profile
    sg = prof.grid
    if grid.sigma != sg:
        raise DomainError("strip grid and surface live on different sigma grids")
    sig = sg.sigma
    r = sg.r
    p_half, p1_half = _legendre_pair_on_profile(prof)

    xi = GridFn(sg, -params.C * np.exp(-sig / 2.0) * p_half)
    gx = _exterior_dn(surface, xi, grid).values

    xiv = xi.values
    eta_s = prof.eta_sigma
    term1 = xiv**2 / (4.0 * r**2)
    term2 = (r * gx + params.C * np.exp(sig / 2.0) * p1_half) ** 2
    d_r_xi = -np.exp(sig) * dsigma_values(sg, xiv)
    r2_drth = -r * eta_s                      # r^2 d_r Theta = -r eta_s
    term3 = (d_r_xi - r2_drth * gx) ** 2 / (1.0 + eta_s**2)
    return GridFn(sg, term1 + term2 - term3)


def zakharov_rhs(surface: SurfaceTheta, psi: GridFn, params: PhysicalParams,
                 grid: StripGrid) -> tuple[GridFn, GridFn]:
    """Right-hand sides of the first-order conical free boundary system:

        rhs_Theta = G[Theta](psi)
        rhs_psi   = -|d_r psi|^2/2
                    + ( r d_r Theta d_r psi + r G[Theta](psi) )^2
                      / (2 (1 + r^2 |d_r Theta|^2))
                    + (kappa/rho) H(Theta)
                    + (epsilon/(2 rho)) |grad phi|^2|_{theta=Theta}.

    At (Theta == theta*, psi == 0, C == C*) both vanish: curvature and
    electric pressure cancel by the definition of the equilibrium constant.
    """
    prof = surface.profile
    sg = prof.grid
    if psi.grid != sg:
        raise DomainError("psi and surface live on different sigma grids")
    if grid.sigma != sg:
        raise DomainError("strip grid and surface live on different sigma grids")

    psiv = psi.values
    if float(np.max(np.abs(psiv))) == 0.0:
        rhs_theta = GridFn.zeros(sg)
        g_psi = np.zeros(sg.n_sigma)
        d_r_psi = np.zeros(sg.n_sigma)
    else:
        phi = to_strip_unknown(psi)
        res = dn_general(prof, phi, grid)
        rhs_theta = convert_dn(prof, res, phi)
        g_psi = rhs_theta.values
        d_r_psi = -np.exp(sg.sigma) * dsigma_values(sg, psiv)

    r = sg.r
    eta_s = prof.eta_sigma
    r_drth = -eta_s                           # r d_r Theta
    quad = (r_drth * d_r_psi + r * g_psi) ** 2 / (2.0 * (1.0 + eta_s**2))
    curv = mean_curvature(surface).values
    e2 = electric_functional(surface, params, grid).values
    rhs_psi = (-0.5 * d_r_psi**2 + quad
               + (params.kappa / params.rho) * curv
               + (params.epsilon / (2.0 * params.rho)) * e2)
    return rhs_theta, GridFn(sg, rhs_psi)


def equilibrium_residual(rhs_psi: GridFn, curvature: GridFn,
                         params: PhysicalParams) -> float:
    """max |rhs_psi| relative to the capillary pressure scale
    (kappa/rho) max |H|: how far a surface is from the stationary balance
    of :func:`zakharov_rhs`, with H = ``curvature``."""
    scale = (params.kappa / params.rho) * float(np.max(np.abs(curvature.values)))
    return float(np.max(np.abs(rhs_psi.values))) / scale
