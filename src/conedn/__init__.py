"""conedn: Dirichlet-Neumann operators for axisymmetric conical free surfaces.

Core layers:

* :mod:`conedn.grid`     periodic log-radial grid, real transform, Sobolev norms
* :mod:`conedn.conical`  conical Legendre functions, Bessel functions, Taylor angle
* :mod:`conedn.flat`     exact-cone DN operator as a Fourier multiplier
* :mod:`conedn.strip`    perturbed-cone DN operator via an elliptic strip solve
* :mod:`conedn.shape`    shape derivative, cancellation check, graded expansion
* :mod:`conedn.physics`  curvature, electric surface energy, free-boundary RHS
* :mod:`conedn.cli`      batch verification commands (`conedn <subcommand>`)
"""

__version__ = "0.1.0"

from .config import RunConfig, build_expression, load_config
from .conical import (
    ConeAngle,
    bessel_i0_derivative_scaled,
    legendre_dtheta,
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
    StripField,
    dsigma_values,
    l2_norm,
    mode_amplitudes,
    multiplier_values,
    pullback_norm_check,
    sobolev_norm,
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
    ZakharovTerms,
    zakharov_rhs,
    zakharov_terms,
)
from .shape import (
    DecayReport,
    cancellation_quantity,
    expansion_multipliers,
    shape_derivative,
    stokes_coefficients,
    stokes_g_ell,
)
from .strip import (
    ConeProfile,
    DNResult,
    StripGrid,
    dn_general,
    sobolev_functionals,
)

__all__ = [
    "ConednError",
    "ConfigurationError",
    "DomainError",
    "EvaluationError",
    "SigmaGrid",
    "GridFn",
    "mode_amplitudes",
    "sobolev_norm",
    "dsigma_values",
    "multiplier_values",
    "l2_norm",
    "pullback_norm_check",
    "ConeAngle",
    "bessel_i0_derivative_scaled",
    "legendre_dtheta",
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
    "dn_general",
    "sobolev_functionals",
    "DecayReport",
    "shape_derivative",
    "cancellation_quantity",
    "stokes_coefficients",
    "expansion_multipliers",
    "stokes_g_ell",
    "RunConfig",
    "load_config",
    "build_expression",
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
    "ZakharovTerms",
    "zakharov_terms",
    "zakharov_rhs",
    "__version__",
]
