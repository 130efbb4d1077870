"""Physics layer in the original radial coordinates.

The library's interior machinery works on the half-strip in (sigma, y) with
the scaled unknown phi; this module converts back to the physical wedge:
the surface angle Theta(r) = eta(-ln r), which each function takes as its
ConeProfile, the velocity-potential trace psi(r) = e^{sigma/2} phi(sigma),
and the physical boundary operator

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
    "to_strip_unknown",
    "to_physical_unknown",
    "unknown_round_trip_gap",
    "convert_dn",
    "mean_curvature",
    "electric_functional",
    "ZakharovTerms",
    "zakharov_terms",
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
        if not all(map(math.isfinite, (self.kappa, self.rho, self.epsilon, self.C))):
            raise ConfigurationError(
                "kappa, rho, epsilon, C must all be finite, got "
                f"({self.kappa}, {self.rho}, {self.epsilon}, {self.C})")
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


def SurfaceTheta(profile: ConeProfile) -> ConeProfile:
    """``profile`` itself: the physics functions take the surface angle
    Theta(r) = eta(-ln r) as its profile.  Only the benchmark's workloads
    call it; it goes once they pass the profile."""
    return profile


#: e^{5 sigma/2} is finite for sigma up to 2 ln(DBL_MAX)/5, about 283.9
SIGMA_MAX = 2.0 * math.log(np.finfo(float).max) / 5.0

# (largest sigma, its formula, the weight) of the physical weight of
# convert_dn and of the weight e^{sigma/2} between the unknowns phi and psi
_PHYSICAL_WEIGHT = (SIGMA_MAX, "2 ln(DBL_MAX)/5", "physical weight e^(5 sigma/2)")
_UNKNOWN_WEIGHT = (2.0 * math.log(np.finfo(float).max), "2 ln(DBL_MAX)", "weight e^(sigma/2)")


def _refuse_overflow(grid: SigmaGrid, sigma_max: float, formula: str, weight: str) -> None:
    """Raise EvaluationError, naming grid.L, when the grid reaches beyond
    ``sigma_max``, where ``weight`` overflows: checked before it is computed."""
    if grid.L > sigma_max:
        raise EvaluationError(
            f"grid.L = {grid.L:g} exceeds {formula} = {sigma_max:.1f}, beyond "
            f"which the {weight} overflows")


def to_strip_unknown(psi: GridFn) -> GridFn:
    """phi(sigma) = e^{-sigma/2} psi(r)|_{r = e^{-sigma}}.  Raises
    :class:`EvaluationError` when grid.L exceeds 2 ln(DBL_MAX), where the
    weight overflows."""
    _refuse_overflow(psi.grid, *_UNKNOWN_WEIGHT)
    return GridFn(psi.grid, np.exp(-psi.grid.sigma / 2.0) * psi.values)


def to_physical_unknown(phi: GridFn) -> GridFn:
    """psi(r)|_{r = e^{-sigma}} = e^{sigma/2} phi(sigma); inverse of
    :func:`to_strip_unknown` to rounding, refusing the same grids."""
    _refuse_overflow(phi.grid, *_UNKNOWN_WEIGHT)
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

    Raises :class:`EvaluationError` when grid.L exceeds ``SIGMA_MAX``, where
    the weight e^{5 sigma/2} overflows.
    """
    grid = profile.grid
    if phi.grid != grid or dn.g_of_phi.grid != grid:
        raise DomainError("profile, data, and strip result on different grids")
    _refuse_overflow(grid, *_PHYSICAL_WEIGHT)
    vals = dn.g_of_phi.values - 0.5 * phi.values * profile.eta_sigma
    return GridFn(grid, np.exp(2.5 * grid.sigma) * vals)


def mean_curvature(profile: ConeProfile) -> GridFn:
    """Mean curvature of the rotated surface theta = Theta(r),

        H = d_r( r d_r Theta / (2 s) ) + d_r Theta / s - cot(Theta)/(2 r s),
        s = sqrt(1 + r^2 |d_r Theta|^2),

    evaluated through sigma-derivatives (r d_r Theta = -eta_s, d_r = -e^sigma
    d_sigma), which keeps r = 0 out of the arithmetic.
    """
    grid = profile.grid
    eta_s = profile.eta_sigma
    s = np.sqrt(1.0 + eta_s**2)
    inner = dsigma_values(grid, eta_s / (2.0 * s))
    vals = np.exp(grid.sigma) * (inner - eta_s / s
                                 - np.cos(profile.eta) / np.sin(profile.eta) / (2.0 * s))
    return GridFn(grid, vals)


def equilibrium_constant(params: PhysicalParams, angle: ConeAngle | None = None) -> float:
    """Field strength C* of the conical stationary solution for the kappa and
    epsilon of ``params`` (its C is not read); see
    :meth:`PhysicalParams.at_equilibrium`.  Only the benchmark's workloads
    call it; it goes once they call that method."""
    return PhysicalParams.at_equilibrium(params.kappa, params.rho, params.epsilon, angle).C


# P_{1/2}(-cos theta) magnitudes below this are rounding residue of the
# equilibrium root, not signal (the function has O(1) slope there).  Snapping
# them to zero makes the conical far field exact; otherwise the residue rides
# the periodized e^{-sigma} surface datum through the wrap and the e^{5s/2}
# conversion weight inflates it by ~1e8.
_ROOT_SNAP = 1e-13


def _legendre_pair_on_profile(prof: ConeProfile) -> tuple[np.ndarray, np.ndarray]:
    # one series call on the distinct angles (a flat profile has one)
    th, nodes = np.unique(prof.eta, return_inverse=True)
    p_half, p1_half = legendre_half(th)
    p_half[np.abs(p_half) <= _ROOT_SNAP] = 0.0
    return p_half[nodes], p1_half[nodes]


def _exterior_dn(profile: ConeProfile, xi: GridFn, grid: StripGrid) -> GridFn:
    """Physical DN trace of the exterior harmonic with surface data xi(r).

    The wedge {Theta <= theta < pi} maps onto the interior geometry by the
    reflection theta -> pi - theta (profile pi - eta); the operator keeps its
    form and picks up one sign from the flipped angular direction.  The solve
    is exactly linear, so xi == 0 returns an exact zero.
    """
    ext = ConeProfile(theta_star=ConeAngle(math.pi - profile.theta_star.theta_star),
                      eta_tilde=GridFn(profile.grid, -profile.eta_tilde.values))
    phi_xi = to_strip_unknown(xi)
    res = dn_general(ext, phi_xi, grid)
    flipped = convert_dn(ext, res, phi_xi)
    return GridFn(profile.grid, -flipped.values)


def electric_functional(profile: ConeProfile, params: PhysicalParams,
                        grid: StripGrid) -> GridFn:
    """Squared electric field strength on the surface,

        |grad phi|^2|_{theta=Theta} = xi^2/(4 r^2)
            + ( r G[Theta](xi) + C r^{-1/2} P^1_{1/2}(-cos Theta) )^2
            - ( d_r xi - r^2 d_r Theta G[Theta](xi) )^2 / (1 + r^2 |d_r Theta|^2)

    with xi(r) = -C sqrt(r) P_{1/2}(-cos Theta(r)) and G[Theta] the exterior
    boundary operator.  On the exact equilibrium cone xi vanishes identically
    and the value reduces to C^2 |P^1_{1/2}(-cos theta*)|^2 / r.  The strip
    solve raises DomainError when ``grid`` is off the profile's sigma grid.
    """
    sg = profile.grid
    sig = sg.sigma
    r = sg.r
    p_half, p1_half = _legendre_pair_on_profile(profile)

    xi = GridFn(sg, -params.C * np.exp(-sig / 2.0) * p_half)
    gx = _exterior_dn(profile, xi, grid).values

    xiv = xi.values
    eta_s = profile.eta_sigma
    term1 = xiv**2 / (4.0 * r**2)
    term2 = (r * gx + params.C * np.exp(sig / 2.0) * p1_half) ** 2
    d_r_xi = -np.exp(sig) * dsigma_values(sg, xiv)
    r2_drth = -r * eta_s                      # r^2 d_r Theta = -r eta_s
    term3 = (d_r_xi - r2_drth * gx) ** 2 / (1.0 + eta_s**2)
    return GridFn(sg, term1 + term2 - term3)


@dataclass(frozen=True)
class ZakharovTerms:
    """The right-hand sides rhs_theta and rhs_psi of the free boundary
    system with the mean curvature H and the squared field ``e2`` that
    enter rhs_psi."""

    rhs_theta: GridFn
    rhs_psi: GridFn
    curvature: GridFn
    e2: GridFn


def zakharov_terms(profile: ConeProfile, psi: GridFn, params: PhysicalParams,
                   grid: StripGrid) -> ZakharovTerms:
    """Right-hand sides of the first-order conical free boundary system:

        rhs_Theta = G[Theta](psi)
        rhs_psi   = -|d_r psi|^2/2
                    + ( r d_r Theta d_r psi + r G[Theta](psi) )^2
                      / (2 (1 + r^2 |d_r Theta|^2))
                    + (kappa/rho) H(Theta)
                    + (epsilon/(2 rho)) |grad phi|^2|_{theta=Theta}.

    At (Theta == theta*, psi == 0, C == C*) both vanish: curvature and
    electric pressure cancel by the definition of the equilibrium constant.
    Two strip solves: the interior one for G[Theta](psi) and the exterior
    one inside |grad phi|^2; the first raises DomainError when ``psi`` or
    ``grid`` is off the profile's sigma grid.  A grid.L beyond
    ``SIGMA_MAX`` raises :class:`EvaluationError` before any weight is
    computed, as :func:`convert_dn` would after the interior solve.
    """
    sg = profile.grid
    _refuse_overflow(sg, *_PHYSICAL_WEIGHT)
    phi = to_strip_unknown(psi)
    rhs_theta = convert_dn(profile, dn_general(profile, phi, grid), phi)
    g_psi = rhs_theta.values
    d_r_psi = -np.exp(sg.sigma) * dsigma_values(sg, psi.values)

    r = sg.r
    eta_s = profile.eta_sigma
    r_drth = -eta_s                           # r d_r Theta
    quad = (r_drth * d_r_psi + r * g_psi) ** 2 / (2.0 * (1.0 + eta_s**2))
    curv = mean_curvature(profile)
    e2 = electric_functional(profile, params, grid)
    rhs_psi = (-0.5 * d_r_psi**2 + quad
               + (params.kappa / params.rho) * curv.values
               + (params.epsilon / (2.0 * params.rho)) * e2.values)
    return ZakharovTerms(rhs_theta, GridFn(sg, rhs_psi), curv, e2)


def zakharov_rhs(profile: ConeProfile, psi: GridFn, params: PhysicalParams,
                 grid: StripGrid) -> tuple[GridFn, GridFn]:
    """(rhs_Theta, rhs_psi) of :func:`zakharov_terms`.  Only the benchmark's
    workloads call it; it goes once they call that function."""
    terms = zakharov_terms(profile, psi, params, grid)
    return terms.rhs_theta, terms.rhs_psi


def equilibrium_residual(rhs_psi: GridFn, curvature: GridFn,
                         params: PhysicalParams) -> float:
    """max |rhs_psi| relative to the capillary pressure scale
    (kappa/rho) max |H|: how far a surface is from the stationary balance
    of :func:`zakharov_terms`, with H = ``curvature``.  Raises
    :class:`EvaluationError` when that scale is 0, as when kappa/rho
    underflows."""
    if rhs_psi.grid != curvature.grid:
        raise DomainError("rhs_psi and curvature live on different grids")
    scale = (params.kappa / params.rho) * float(np.max(np.abs(curvature.values)))
    if scale == 0.0:
        raise EvaluationError(
            f"the pressure scale (kappa/rho) max|H| is 0 (kappa/rho = "
            f"{params.kappa / params.rho:g}): no residual relative to it")
    return float(np.max(np.abs(rhs_psi.values))) / scale
