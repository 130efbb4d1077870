"""Physics layer in the original radial coordinates.

The library's interior machinery works on the half-strip in (sigma, y) with
the scaled unknown phi; this module converts back to the physical wedge:
the surface angle Theta(r) = eta(-ln r), which each function takes as its
ConeProfile, the velocity-potential trace psi(r) = e^{sigma/2} phi(sigma),
and the physical boundary operator

    G[Theta](psi) = e^{5 sigma/2} { strip_dn(phi) - phi d_sigma(eta) / 2 },

which :func:`dn_physical` computes from psi with one strip solve; every
caller of G goes through it.  On top of it sit the mean curvature of the
rotated surface, the squared electric field on the surface (exterior
potential handled by the same solver under the reflection
theta -> pi - theta), the equilibrium field strength of the conical
stationary solution, and the first-order free boundary right-hand sides.
No time stepping lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conical import ConeAngle, legendre_half, taylor_angle
from .errors import ConfigurationError, DomainError, EvaluationError
from .grid import GridFn, SigmaGrid, dsigma_values
from .strip import ConeProfile, StripGrid, dn_general

__all__ = [
    "PhysicalParams",
    "to_strip_unknown",
    "to_physical_unknown",
    "unknown_round_trip_gap",
    "dn_physical",
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
# dn_physical, of the weight e^{sigma/2} between the unknowns phi and psi,
# and of the weight e^sigma of mean_curvature
_PHYSICAL_WEIGHT = (SIGMA_MAX, "2 ln(DBL_MAX)/5", "physical weight e^(5 sigma/2)")
_UNKNOWN_WEIGHT = (2.0 * math.log(np.finfo(float).max), "2 ln(DBL_MAX)", "weight e^(sigma/2)")
_CURVATURE_WEIGHT = (math.log(np.finfo(float).max), "ln(DBL_MAX)", "weight e^sigma")


def _refuse_overflow(grid: SigmaGrid, sigma_max: float, formula: str, weight: str) -> None:
    """Raise EvaluationError, naming grid.L, when the grid reaches beyond
    ``sigma_max``, where ``weight`` overflows: checked before it is computed."""
    if grid.L > sigma_max:
        raise EvaluationError(
            f"grid.L = {grid.L:g} exceeds {formula} = {sigma_max:.1f}, beyond "
            f"which the {weight} overflows")


def _refuse_non_finite(values: np.ndarray, term: str, constants: str) -> None:
    """Raise EvaluationError, naming ``term`` and the ``constants`` it was
    computed at, when ``values`` hold a NaN or inf."""
    if not np.all(np.isfinite(values)):
        raise EvaluationError(f"{term} leaves the float range at {constants}")


def to_strip_unknown(psi: GridFn) -> GridFn:
    """phi(sigma) = e^{-sigma/2} psi(r)|_{r = e^{-sigma}}.  Raises
    :class:`EvaluationError` when grid.L exceeds 2 ln(DBL_MAX), where the
    weight overflows."""
    _refuse_overflow(psi.grid, *_UNKNOWN_WEIGHT)
    return GridFn(psi.grid, np.exp(-psi.grid.sigma / 2.0) * psi.values)


def to_physical_unknown(phi: GridFn) -> GridFn:
    """psi(r)|_{r = e^{-sigma}} = e^{sigma/2} phi(sigma), inf beyond the float
    range; inverse of :func:`to_strip_unknown` to rounding, refusing the same grids."""
    _refuse_overflow(phi.grid, *_UNKNOWN_WEIGHT)
    with np.errstate(over="ignore"):
        return GridFn(phi.grid, np.exp(phi.grid.sigma / 2.0) * phi.values)


def unknown_round_trip_gap(phi: GridFn) -> float:
    """Sup of the change that a round trip through :func:`to_strip_unknown`
    and :func:`to_physical_unknown` makes to psi = to_physical_unknown(phi),
    relative to sup |psi|."""
    psi = to_physical_unknown(phi)
    back = to_physical_unknown(to_strip_unknown(psi))
    with np.errstate(invalid="ignore"):   # inf - inf: psi beyond the float range
        return (float(np.max(np.abs(back.values - psi.values)))
                / float(np.max(np.abs(psi.values))))


def dn_physical(profile: ConeProfile, psi: GridFn, grid: StripGrid) -> GridFn:
    """Physical boundary operator on the surface trace psi(r), one strip solve:

    G[Theta](psi)|_{r=e^{-sigma}} = e^{5 sigma/2} (strip_dn(phi) - phi eta_s / 2),

    with phi = to_strip_unknown(psi).  A grid.L beyond ``SIGMA_MAX``, where
    the weight e^{5 sigma/2} overflows, raises :class:`EvaluationError`
    before any weight is computed; the solve raises DomainError when ``psi``
    or ``grid`` is off the profile's sigma grid.
    """
    sg = profile.grid
    _refuse_overflow(sg, *_PHYSICAL_WEIGHT)
    phi = to_strip_unknown(psi)
    res = dn_general(profile, phi, grid)
    vals = res.g_of_phi.values - 0.5 * phi.values * profile.eta_sigma
    return GridFn(sg, np.exp(2.5 * sg.sigma) * vals)


def mean_curvature(profile: ConeProfile) -> GridFn:
    """Mean curvature of the rotated surface theta = Theta(r),

        H = d_r( r d_r Theta / (2 s) ) + d_r Theta / s - cot(Theta)/(2 r s),
        s = sqrt(1 + r^2 |d_r Theta|^2),

    evaluated through sigma-derivatives (r d_r Theta = -eta_s, d_r = -e^sigma
    d_sigma), which keeps r = 0 out of the arithmetic.  Raises
    :class:`EvaluationError` when grid.L exceeds ln(DBL_MAX), where the
    weight e^sigma overflows.
    """
    grid = profile.grid
    _refuse_overflow(grid, *_CURVATURE_WEIGHT)
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
    return GridFn(profile.grid, -dn_physical(ext, xi, grid).values)


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
    A grid.L beyond ``SIGMA_MAX`` raises :class:`EvaluationError` before any
    weight is computed; a C at which xi or the value leaves the float range
    raises it naming C.
    """
    sg = profile.grid
    _refuse_overflow(sg, *_PHYSICAL_WEIGHT)
    sig = sg.sigma
    r = sg.r
    p_half, p1_half = _legendre_pair_on_profile(profile)
    eta_s = profile.eta_sigma

    with np.errstate(over="ignore", invalid="ignore"):
        xiv = -params.C * np.exp(-sig / 2.0) * p_half
        _refuse_non_finite(xiv, "the exterior datum xi", f"C = {params.C:g}")
        gx = _exterior_dn(profile, GridFn(sg, xiv), grid).values
        term1 = xiv**2 / (4.0 * r**2)
        term2 = (r * gx + params.C * np.exp(sig / 2.0) * p1_half) ** 2
        d_r_xi = -np.exp(sig) * dsigma_values(sg, xiv)
        r2_drth = -r * eta_s                  # r^2 d_r Theta = -r eta_s
        term3 = (d_r_xi - r2_drth * gx) ** 2 / (1.0 + eta_s**2)
        e2 = term1 + term2 - term3
    _refuse_non_finite(e2, "the squared field E2", f"C = {params.C:g}")
    return GridFn(sg, e2)


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
    one inside |grad phi|^2; the first, :func:`dn_physical`, refuses a
    grid.L beyond ``SIGMA_MAX`` before any weight is computed and raises
    DomainError when ``psi`` or ``grid`` is off the profile's sigma grid.
    An rhs_psi beyond the float range, as where kappa/rho overflows, raises
    :class:`EvaluationError` naming the constants.
    """
    sg = profile.grid
    rhs_theta = dn_physical(profile, psi, grid)
    curv = mean_curvature(profile)
    e2 = electric_functional(profile, params, grid)

    r = sg.r
    eta_s = profile.eta_sigma
    r_drth = -eta_s                           # r d_r Theta
    with np.errstate(over="ignore", invalid="ignore"):
        d_r_psi = -np.exp(sg.sigma) * dsigma_values(sg, psi.values)
        quad = (r_drth * d_r_psi + r * rhs_theta.values) ** 2 / (2.0 * (1.0 + eta_s**2))
        rhs_psi = (-0.5 * d_r_psi**2 + quad
                   + (params.kappa / params.rho) * curv.values
                   + (params.epsilon / (2.0 * params.rho)) * e2.values)
    _refuse_non_finite(rhs_psi, "rhs_psi", f"kappa = {params.kappa:g}, rho = {params.rho:g}, "
                                           f"epsilon = {params.epsilon:g}")
    return ZakharovTerms(rhs_theta, GridFn(sg, rhs_psi), curv, e2)


def zakharov_rhs(profile: ConeProfile, psi: GridFn, params: PhysicalParams,
                 grid: StripGrid) -> tuple[GridFn, GridFn]:
    """(rhs_Theta, rhs_psi) of :func:`zakharov_terms`.  Only the benchmark's
    workloads call it; it goes once they call that function."""
    terms = zakharov_terms(profile, psi, params, grid)
    return terms.rhs_theta, terms.rhs_psi


def equilibrium_residual(terms: ZakharovTerms, params: PhysicalParams) -> float:
    """max |rhs_psi| relative to the capillary pressure scale
    (kappa/rho) max |H|: how far a surface is from the stationary balance
    of :func:`zakharov_terms`, with rhs_psi and H read from ``terms``.
    Raises :class:`EvaluationError` when that scale is 0, as when kappa/rho
    underflows."""
    scale = (params.kappa / params.rho) * float(np.max(np.abs(terms.curvature.values)))
    if scale == 0.0:
        raise EvaluationError(
            f"the pressure scale (kappa/rho) max|H| is 0 (kappa/rho = "
            f"{params.kappa / params.rho:g}): no residual relative to it")
    return float(np.max(np.abs(terms.rhs_psi.values))) / scale
