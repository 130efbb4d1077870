"""The verdicts of the ten verification subcommands, one function each.

Each runs its computation on a RunConfig and returns a :class:`Check`.
Every clause compares a metric against a named constant of this module,
except those of ``bounds`` and ``cancel-check``, the library's own
verdicts (flat.PLATEAU_SPREAD_MAX, flat.X_MAX, flat.BESSEL_SLACK,
shape.GAIN_MIN).  :mod:`conedn.cli` writes the artifacts and exit code.
"""

import math
from dataclasses import dataclass

import numpy as np

from .conical import bessel_form_ratio, legendre_dtheta, legendre_half, taylor_angle
from .config import RunConfig
from .errors import ConfigurationError, EvaluationError
from .flat import build_symbol_table, exact_cone_gap, extend_flat, verify_kernel_bounds
from .grid import GridFn, binary_scaled, l2_norm, pullback_norm_check
from .physics import equilibrium_residual, unknown_round_trip_gap, zakharov_terms
from .shape import (cancellation_quantity, expansion_multipliers, shape_central_difference,
                    shape_derivative)
from .strip import ConeProfile, dn_general, sobolev_functionals

__all__ = ["Check", "angle", "symbol", "extend", "solve", "bounds", "shape_check",
           "cancel_check", "stokes", "equilibrium", "norms"]

# Pass thresholds of the clauses judged here.
ANGLE_TOL = 1e-3            # |theta*/pi - 0.2738|
ROOT_TOL = 1e-9             # |P_{1/2}(cos theta*)|
G_MIN = 0.0                 # min g, strictly above
EVEN_GAP_MAX = 0.0          # max |g(-zeta) - g(zeta)|
SYMBOL_RATIO_TOL = 0.02     # |g / Bessel form - 1| at zeta = 100
TRACE_TOL = 1e-9            # sup |extension at theta* - phi| / sup |phi|
SOLVE_FACTOR = 0.5          # exact cone: relative gap to g <= factor * delta_y^2
SHAPE_TOL = 1e-3            # formula against central differences, relative L2
STOKES_TOL = 1e-6           # series a1/a0 against g, a3/a0 against A_3 from g
EQUILIBRIUM_TOL = 1e-10     # max|rhs_psi| / ((kappa/rho) max|H|)
RHS_THETA_MAX = 0.0         # max|rhs_theta| on the flat cone
NORM_EQUALITY_TOL = 1e-6    # the two m = 1 pullback norms, relative gap
NORM_ROUNDTRIP_TOL = 1e-12  # strip round trip of psi, relative to sup|psi|
FLOOR_MIN = 0.0             # coercivity floor of the profile, strictly above


@dataclass(frozen=True)
class Check:
    """One subcommand's outcome: ``tables`` maps each CSV file name to its
    ``(column, values)`` pairs, ``fields`` each ``.cdn1`` name to a
    StripField, ``metrics`` is the summary's metrics object, ``clauses`` maps
    each clause to whether it holds, and ``lines`` print before the verdict."""

    tables: dict
    fields: dict
    metrics: dict
    clauses: dict
    lines: tuple = ()

    @property
    def passed(self) -> bool:
        return all(self.clauses.values())


def _refuse_vanishing(f: GridFn, key: str) -> None:
    """Refuse data that vanish on the grid: its checks would judge zeros."""
    if l2_norm(f) == 0.0:
        raise ConfigurationError(f"config key {key} vanishes on the grid")


def angle(cfg: RunConfig) -> Check:
    th = taylor_angle().theta_star
    p_val, p1_val = legendre_half(th)
    metrics = {
        "theta_star": th,
        "theta_over_pi": th / math.pi,
        "legendre_at_root": p_val,
        "legendre_slope_at_root": p1_val,
    }
    table = [("theta_star", [th]), ("theta_over_pi", [th / math.pi]),
             ("legendre_at_root", [p_val])]
    return Check({"angle.csv": table}, {}, metrics, {
        "theta_over_pi": abs(th / math.pi - 0.2738) <= ANGLE_TOL,
        "legendre_at_root": abs(p_val) <= ROOT_TOL,
    }, (f"theta_star/pi = {th / math.pi:.6f}",))


def symbol(cfg: RunConfig) -> Check:
    grid = cfg.sigma_grid()
    cone = cfg.cone_angle()
    g = build_symbol_table(grid, cone).g
    order = np.argsort(grid.zeta, kind="stable")
    half = grid.n_sigma // 2
    metrics = {
        "g_min": float(np.min(g)),
        "g_max": float(np.max(g)),
        "even_gap": float(np.max(np.abs(g[1:half][::-1] - g[half + 1:]))),
        # large-frequency cross-check against the modified Bessel profile
        "bessel_ratio_at_100": bessel_form_ratio(100.0, cone.theta_star),
    }
    table = [("zeta", grid.zeta[order]), ("g", g[order])]
    return Check({"symbol.csv": table}, {}, metrics, {
        "g_min": metrics["g_min"] > G_MIN,
        "even_gap": metrics["even_gap"] <= EVEN_GAP_MAX,
        "bessel_ratio_at_100": abs(metrics["bessel_ratio_at_100"] - 1.0) <= SYMBOL_RATIO_TOL,
    })


def extend(cfg: RunConfig) -> Check:
    grid = cfg.sigma_grid()
    cone = cfg.cone_angle()
    phi = cfg.phi()
    _refuse_vanishing(phi, "phi")
    fractions = np.linspace(0.0, 1.0, 33)[1:]
    field = extend_flat(phi, fractions * cone.theta_star, build_symbol_table(grid, cone))
    table = [
        ("sigma", np.repeat(grid.sigma, field.ys.size)),
        ("y", np.tile(field.ys, grid.n_sigma)),
        ("v", field.values.ravel()),
    ]
    metrics = {
        "trace_gap": (float(np.max(np.abs(field.boundary_trace() - phi.values)))
                      / float(np.max(np.abs(phi.values)))),
        "sup_field": float(np.max(np.abs(field.values))),
    }
    return Check({"extend.csv": table}, {"extend.cdn1": field}, metrics,
                 {"trace_gap": metrics["trace_gap"] <= TRACE_TOL})


def solve(cfg: RunConfig) -> Check:
    """On an exact cone (no perturbation) the strip solve must reproduce the
    multiplier; on a perturbed one there is nothing to judge it against."""
    profile = cfg.profile()
    phi = cfg.phi()
    exact_cone = profile.sup_tilde == 0.0
    if exact_cone:
        _refuse_vanishing(phi, "phi")
    sgrid = cfg.strip_grid()
    res = dn_general(profile, phi, sgrid)
    table = [
        ("sigma", profile.grid.sigma),
        ("phi", phi.values),
        ("g_of_phi", res.g_of_phi.values),
        ("b_normal", res.b_normal.values),
        ("v_tangential", res.v_tangential.values),
    ]
    metrics = {"residual_norm": res.residual_norm,
               "delta_y": sgrid.delta_y, "flat_gap_rel": None}
    clauses = {}
    if exact_cone:
        metrics["flat_gap_rel"] = exact_cone_gap(phi, res.g_of_phi, profile.theta_star)
        clauses["flat_gap_rel"] = metrics["flat_gap_rel"] <= SOLVE_FACTOR * sgrid.delta_y**2
    return Check({"dn.csv": table}, {"solve.cdn1": res.field}, metrics, clauses)


def bounds(cfg: RunConfig) -> Check:
    report = verify_kernel_bounds(build_symbol_table(cfg.sigma_grid(), cfg.cone_angle()))
    table = [("zeta", report.zeta),
             *((f"S{i}", report.s_values[i]) for i in range(4))]
    metrics = {
        "sup": list(report.s_sup),
        "argsup": list(report.s_argsup),
        "plateau_spread": list(report.plateau_spread),
        "zeta_max": float(report.zeta[-1]),
        "bessel_sup": report.bessel_sup,
        "bessel_weighted_sup": report.bessel_weighted_sup,
    }
    return Check({"bounds.csv": table}, {}, metrics, {"kernel_bounds": report.passed})


def shape_check(cfg: RunConfig) -> Check:
    profile = cfg.profile()
    phi = cfg.phi()
    h = cfg.direction()
    sgrid = cfg.strip_grid()
    grid = profile.grid
    eps = cfg.raw["shape"]["epsilon"]
    _refuse_vanishing(phi, "phi")
    _refuse_vanishing(h, "shape.direction")

    formula = shape_derivative(profile, phi, h, sgrid)
    fd = shape_central_difference(profile, phi, h, sgrid, eps)
    fd_norm = l2_norm(fd)
    if fd_norm == 0.0:
        raise EvaluationError("the central difference vanishes: shape.epsilon "
                              "* shape.direction is lost to rounding")
    rel = l2_norm(GridFn(grid, formula.values - fd.values)) / fd_norm
    table = [("sigma", grid.sigma), ("formula", formula.values),
             ("central_difference", fd.values)]
    metrics = {"rel_gap": rel, "epsilon": eps, "delta_y": sgrid.delta_y}
    return Check({"shape.csv": table}, {}, metrics, {"rel_gap": rel <= SHAPE_TOL})


def cancel_check(cfg: RunConfig) -> Check:
    profile = cfg.profile()
    phi = cfg.phi()
    _refuse_vanishing(phi, "phi")
    q, report = cancellation_quantity(profile, phi, cfg.strip_grid())
    table = [("sigma", profile.grid.sigma), ("q", q.values)]
    metrics = {"slopes": report.slopes, "gain": report.gain, "pass": report.passed}
    return Check({"cancel.csv": table}, {}, metrics, {"gain": report.passed})


def stokes(cfg: RunConfig) -> Check:
    grid = cfg.sigma_grid()
    cone = cfg.cone_angle()
    m_values = grid.rfft_zeta
    try:
        a0, a1, a2, a3 = legendre_dtheta(cone.theta_star, m_values * m_values, 3)
    except EvaluationError as exc:  # name the keys behind the largest frequency
        raise EvaluationError(
            f"graded-expansion coefficients fail on frequencies up to {m_values[-1]:.3g} "
            f"(pi n_sigma / (2 L), config keys grid.n_sigma and grid.L): {exc}; "
            "stokes_g_ell reads the symbol table at every frequency") from exc
    _, g_vals, _, a3_ratio = expansion_multipliers(build_symbol_table(grid, cone))
    metrics = {
        "ratio_gap": float(np.max(np.abs(a1 / a0 - g_vals) / g_vals)),
        # third order two ways: the series against the expansion's multiplier
        "third_order_gap": float(np.max(np.abs(a3 / a0 - a3_ratio) / np.abs(a3_ratio))),
    }
    table = [("m", m_values), ("a0", a0), ("a1", a1), ("a2", a2), ("a3", a3)]
    return Check({"stokes.csv": table}, {}, metrics,
                 {name: gap <= STOKES_TOL for name, gap in metrics.items()})


def equilibrium(cfg: RunConfig) -> Check:
    grid = cfg.sigma_grid()
    params = cfg.physical_params()
    profile = ConeProfile.flat(grid, cfg.cone_angle())
    terms = zakharov_terms(profile, GridFn.zeros(grid), params, cfg.strip_grid())
    table = [
        ("r", grid.r),
        ("Theta", profile.eta),
        ("H", terms.curvature.values),
        ("E2", terms.e2.values),
        ("rhsTheta", terms.rhs_theta.values),
        ("rhsPsi", terms.rhs_psi.values),
    ]
    metrics = {"c_star": params.C,
               "rhs_psi_rel": equilibrium_residual(terms, params),
               "rhs_theta_max": float(np.max(np.abs(terms.rhs_theta.values)))}
    return Check({"physics.csv": table}, {}, metrics, {
        "rhs_psi_rel": metrics["rhs_psi_rel"] <= EQUILIBRIUM_TOL,
        "rhs_theta_max": metrics["rhs_theta_max"] <= RHS_THETA_MAX,
    })


def norms(cfg: RunConfig) -> Check:
    profile = cfg.profile()
    phi = cfg.phi()
    _refuse_vanishing(phi, "phi")
    lhs, rhs = pullback_norm_check(phi, 1)
    u_s, floor = sobolev_functionals(profile, 3.0)
    roundtrip_gap = unknown_round_trip_gap(phi)
    # the ratios are scale-free, so they are taken of phi scaled by a power
    # of two, where both norms stay finite
    scaled = GridFn(phi.grid, binary_scaled(phi.values)[0])
    ratios = {}
    for m in (2, 3):
        l_m, r_m = pullback_norm_check(scaled, m)
        ratios[f"pullback_ratio_m{m}"] = l_m / r_m
    table = [("u_s", [u_s]), ("coercivity_floor", [floor]), ("pullback_lhs", [lhs]),
             ("pullback_rhs", [rhs]), ("roundtrip_gap", [roundtrip_gap])]
    metrics = {"u_s": u_s, "coercivity_floor": floor,
               "pullback_equality_gap": abs(lhs - rhs) / rhs,
               "roundtrip_gap": roundtrip_gap, **ratios}
    return Check({"norms.csv": table}, {}, metrics, {
        "pullback_equality_gap": metrics["pullback_equality_gap"] <= NORM_EQUALITY_TOL,
        "roundtrip_gap": roundtrip_gap <= NORM_ROUNDTRIP_TOL,
        "coercivity_floor": floor > FLOOR_MIN,
    })
