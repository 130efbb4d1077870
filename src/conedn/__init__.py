"""conedn: Dirichlet-Neumann operators for axisymmetric conical free surfaces.

Core layers:

* :mod:`conedn.grid`     periodic log-radial grid, real transform, Sobolev norms
* :mod:`conedn.conical`  conical Legendre functions, Bessel functions, Taylor angle
* :mod:`conedn.flat`     exact-cone DN operator as a Fourier multiplier
* :mod:`conedn.strip`    perturbed-cone DN operator via an elliptic strip solve
* :mod:`conedn.shape`    shape derivative, cancellation check, graded expansion
* :mod:`conedn.physics`  curvature, electric surface energy, free-boundary RHS
* :mod:`conedn.checks`   the verdict of each verification subcommand
* :mod:`conedn.cli`      batch verification commands (`conedn <subcommand>`)

``import conedn`` loads no submodule and no numpy: each exported name, and
each submodule, is imported on first access (PEP 562).  So ``conedn.cli``
can set its BLAS thread default before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each exported name
_EXPORTS = {
    "errors": ("ConednError", "ConfigurationError", "DomainError", "EvaluationError"),
    "grid": ("SigmaGrid", "GridFn", "StripField", "mode_amplitudes", "sobolev_norm",
             "dsigma_values", "multiplier_values", "l2_norm", "pullback_norm_check"),
    "conical": ("ConeAngle", "bessel_i0_derivative_scaled", "legendre_dtheta",
                "legendre_half", "taylor_angle"),
    "flat": ("SymbolTable", "KernelBoundsReport", "build_symbol_table", "dn_flat",
             "exact_cone_gap", "extend_flat", "verify_kernel_bounds"),
    "strip": ("ConeProfile", "StripGrid", "DNResult", "dn_general", "sobolev_functionals"),
    "shape": ("DecayReport", "shape_derivative", "cancellation_quantity",
              "expansion_multipliers", "stokes_g_ell"),
    "config": ("RunConfig", "load_config", "build_expression"),
    "io": ("config_hash", "write_csv", "write_field_binary", "read_field_binary"),
    "physics": ("PhysicalParams", "to_strip_unknown", "to_physical_unknown",
                "unknown_round_trip_gap", "dn_physical", "mean_curvature",
                "equilibrium_residual", "electric_functional", "ZakharovTerms",
                "zakharov_terms"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "checks", "cli"}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
