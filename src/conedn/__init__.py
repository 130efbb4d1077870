"""conedn: Dirichlet-Neumann operators for axisymmetric conical free surfaces.

Core layers:

* :mod:`conedn.grid`     periodic log-radial grid, transforms, Sobolev norms
* :mod:`conedn.conical`  conical Legendre functions, Bessel functions, Taylor angle
* :mod:`conedn.flat`     exact-cone DN operator as a Fourier multiplier
* :mod:`conedn.strip`    perturbed-cone DN operator via an elliptic strip solve
* :mod:`conedn.shape`    shape derivative, cancellation check, graded expansion
* :mod:`conedn.physics`  curvature, electric surface energy, free-boundary RHS
* :mod:`conedn.cli`      batch verification commands (`conedn <subcommand>`)
"""

__version__ = "0.1.0"

from .config import RunConfig, build_expression, build_perturbation, load_config
from .conical import (
    ConeAngle,
    bessel_i0_derivative_scaled,
    bessel_i_scaled,
    conical_dtheta_ratios,
    conical_p,
    conical_p_dtheta,
    conical_p_log,
    gamma_half_abs2,
    legendre_half,
    taylor_angle,
)
from .errors import ConednError, ConfigurationError, DomainError, EvaluationError
from .flat import (
    KernelBoundsReport,
    SymbolTable,
    build_symbol_table,
    dn_flat,
    exact_cone_gap,
    extend_flat,
    verify_kernel_bounds,
)
from .io import (
    config_hash,
    read_field_binary,
    write_csv,
    write_field_binary,
)
from .grid import (
    GridFn,
    SigmaGrid,
    Spectrum,
    apply_multiplier,
    derivative,
    dsigma_values,
    l2_norm,
    multiplier_values,
    pullback_norm_check,
    sobolev_norm,
    to_gridfn,
    to_spectrum,
)
from .physics import (
    PhysicalParams,
    SurfaceTheta,
    convert_dn,
    electric_functional,
    equilibrium_constant,
    equilibrium_residual,
    mean_curvature,
    to_physical_unknown,
    to_strip_unknown,
    unknown_round_trip_gap,
    zakharov_rhs,
)
from .shape import (
    CoefficientDerivative,
    DecayReport,
    ShapePerturbation,
    StokesCoeffs,
    cancellation_quantity,
    d_eta_coefficients,
    flat_cancellation_symbol,
    shape_derivative,
    stokes_coefficients,
    stokes_g_ell,
    varpi_field,
)
from .strip import (
    ConeProfile,
    DNResult,
    StripField,
    StripGrid,
    assemble_coefficients,
    dn_general,
    sobolev_functionals,
    solve_strip,
)

__all__ = [
    "ConednError",
    "ConfigurationError",
    "DomainError",
    "EvaluationError",
    "SigmaGrid",
    "GridFn",
    "Spectrum",
    "to_spectrum",
    "to_gridfn",
    "sobolev_norm",
    "apply_multiplier",
    "derivative",
    "dsigma_values",
    "multiplier_values",
    "l2_norm",
    "pullback_norm_check",
    "ConeAngle",
    "conical_p",
    "conical_p_log",
    "conical_p_dtheta",
    "conical_dtheta_ratios",
    "gamma_half_abs2",
    "bessel_i_scaled",
    "bessel_i0_derivative_scaled",
    "legendre_half",
    "taylor_angle",
    "SymbolTable",
    "KernelBoundsReport",
    "build_symbol_table",
    "dn_flat",
    "exact_cone_gap",
    "extend_flat",
    "verify_kernel_bounds",
    "ConeProfile",
    "StripGrid",
    "StripField",
    "DNResult",
    "assemble_coefficients",
    "solve_strip",
    "dn_general",
    "sobolev_functionals",
    "ShapePerturbation",
    "CoefficientDerivative",
    "DecayReport",
    "StokesCoeffs",
    "shape_derivative",
    "d_eta_coefficients",
    "varpi_field",
    "cancellation_quantity",
    "flat_cancellation_symbol",
    "stokes_coefficients",
    "stokes_g_ell",
    "RunConfig",
    "load_config",
    "build_expression",
    "build_perturbation",
    "config_hash",
    "write_csv",
    "write_field_binary",
    "read_field_binary",
    "PhysicalParams",
    "SurfaceTheta",
    "to_strip_unknown",
    "to_physical_unknown",
    "unknown_round_trip_gap",
    "convert_dn",
    "mean_curvature",
    "equilibrium_constant",
    "equilibrium_residual",
    "electric_functional",
    "zakharov_rhs",
    "__version__",
]
