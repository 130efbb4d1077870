"""Batch verification commands.

Each subcommand runs one computation, writes its CSV artifacts and a JSON
summary into the output directory, prints a PASS/FAIL line, and exits 0 when
every check met its tolerance.  Numerical failures exit 1 with the summary
still written; configuration and domain rejections exit 2.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .conical import bessel_form_ratio, legendre_half, taylor_angle
from .config import RunConfig, load_config
from .errors import ConfigurationError, DomainError, EvaluationError
from .flat import build_symbol_table, exact_cone_gap, extend_flat, verify_kernel_bounds
from .grid import GridFn, l2_norm, pullback_norm_check
from .io import (
    config_hash,
    write_csv,
    write_field_binary,
    write_plot_script,
    write_summary,
)
from .physics import (
    SurfaceTheta,
    electric_functional,
    equilibrium_residual,
    mean_curvature,
    unknown_round_trip_gap,
    zakharov_rhs,
)
from .shape import (
    cancellation_quantity,
    shape_central_difference,
    shape_derivative,
    stokes_a3,
    stokes_coefficients,
    third_derivative_series,
)
from .strip import ConeProfile, dn_general, sobolev_functionals


def _cmd_angle(cfg: RunConfig, out: Path, seed: int):
    angle = taylor_angle()
    th = angle.theta_star
    p_val, p1_val = legendre_half(th)
    print(f"theta_star/pi = {th / math.pi:.6f}")
    metrics = {
        "theta_star": th,
        "theta_over_pi": th / math.pi,
        "legendre_at_root": p_val,
        "legendre_slope_at_root": p1_val,
    }
    passed = (abs(th / math.pi - 0.2738) <= cfg.tol("angle")
              and abs(p_val) <= cfg.tol("root"))
    write_csv(out / "angle.csv", [
        ("theta_star", [th]),
        ("theta_over_pi", [th / math.pi]),
        ("legendre_at_root", [p_val]),
    ])
    return passed, metrics


def _cmd_symbol(cfg: RunConfig, out: Path, seed: int):
    grid = cfg.sigma_grid()
    angle = cfg.cone_angle()
    table = build_symbol_table(grid, angle)
    order = np.argsort(grid.zeta, kind="stable")
    write_csv(out / "symbol.csv", [
        ("zeta", grid.zeta[order]),
        ("g", table.g[order]),
    ])
    half = grid.n_sigma // 2
    even_gap = float(np.max(np.abs(table.g[1:half][::-1] - table.g[half + 1:])))

    # large-frequency cross-check against the modified Bessel profile
    ratio = bessel_form_ratio(100.0, angle.theta_star)
    metrics = {
        "g_min": float(np.min(table.g)),
        "g_max": float(np.max(table.g)),
        "even_gap": even_gap,
        "bessel_ratio_at_100": ratio,
    }
    passed = (np.all(np.isfinite(table.g)) and metrics["g_min"] > 0.0
              and even_gap == 0.0
              and abs(ratio - 1.0) <= cfg.tol("symbol_ratio"))
    return bool(passed), metrics


def _cmd_extend(cfg: RunConfig, out: Path, seed: int):
    grid = cfg.sigma_grid()
    angle = cfg.cone_angle()
    table = build_symbol_table(grid, angle)
    phi = cfg.phi()
    fractions = np.linspace(0.0, 1.0, 33)[1:]
    field = extend_flat(phi, fractions * angle.theta_star, table)
    write_field_binary(out / "extend.cdn1", field)
    ys = field.ys()
    sig = np.repeat(grid.sigma, ys.size)
    yy = np.tile(ys, grid.n_sigma)
    write_csv(out / "extend.csv", [
        ("sigma", sig),
        ("y", yy),
        ("v", field.values.ravel()),
    ])
    trace_gap = float(np.max(np.abs(field.boundary_trace() - phi.values)))
    metrics = {
        "trace_gap": trace_gap,
        "sup_field": float(np.max(np.abs(field.values))),
    }
    passed = (np.all(np.isfinite(field.values))
              and trace_gap <= cfg.tol("trace"))
    return bool(passed), metrics


def _cmd_solve(cfg: RunConfig, out: Path, seed: int):
    profile = cfg.profile()
    phi = cfg.phi()
    sgrid = cfg.strip_grid()
    res = dn_general(profile, phi, sgrid)
    write_field_binary(out / "solve.cdn1", res.field)
    write_csv(out / "dn.csv", [
        ("sigma", profile.grid.sigma),
        ("phi", phi.values),
        ("g_of_phi", res.g_of_phi.values),
        ("b_normal", res.b_normal.values),
        ("v_tangential", res.v_tangential.values),
    ])
    metrics = {"residual_norm": res.residual_norm,
               "delta_y": sgrid.delta_y, "flat_gap_rel": None}
    passed = bool(np.all(np.isfinite(res.g_of_phi.values)))
    if profile.sup_tilde == 0.0:
        # exact-cone data: the strip solve must reproduce the multiplier
        rel = exact_cone_gap(phi, res.g_of_phi, profile.theta_star)
        metrics["flat_gap_rel"] = rel
        passed = passed and rel <= cfg.tol("solve_factor") * sgrid.delta_y**2
    return passed, metrics


def _cmd_bounds(cfg: RunConfig, out: Path, seed: int):
    grid = cfg.sigma_grid()
    angle = cfg.cone_angle()
    table = build_symbol_table(grid, angle)
    report = verify_kernel_bounds(table, zeta_max=100.0)
    write_csv(out / "bounds.csv", [
        ("zeta", report.zeta),
        ("S0", report.s_values[0]),
        ("S1", report.s_values[1]),
        ("S2", report.s_values[2]),
        ("S3", report.s_values[3]),
    ])
    metrics = {
        "sup": list(report.s_sup),
        "argsup": list(report.s_argsup),
        "plateau_spread": list(report.plateau_spread),
        "bessel_sup": report.bessel_sup,
        "bessel_weighted_sup": report.bessel_weighted_sup,
    }
    passed = (all(np.isfinite(report.s_sup))
              and max(report.plateau_spread) <= cfg.tol("plateau")
              and report.bessel_sup <= 1.0 + cfg.tol("bessel")
              and report.bessel_weighted_sup <= 3.0 + cfg.tol("bessel"))
    return bool(passed), metrics


def _cmd_shape_check(cfg: RunConfig, out: Path, seed: int):
    profile = cfg.profile()
    phi = cfg.phi()
    h = cfg.direction()
    sgrid = cfg.strip_grid()
    grid = profile.grid
    eps = cfg.raw["shape"]["epsilon"]

    formula = shape_derivative(profile, phi, h, sgrid)
    fd = shape_central_difference(profile, phi, h, sgrid, eps)
    rel = l2_norm(formula - fd) / max(l2_norm(fd), 1e-300)
    write_csv(out / "shape.csv", [
        ("sigma", grid.sigma),
        ("formula", formula.values),
        ("central_difference", fd.values),
    ])
    metrics = {"rel_gap": rel, "epsilon": eps, "delta_y": sgrid.delta_y}
    return rel <= cfg.tol("shape"), metrics


def _cmd_cancel_check(cfg: RunConfig, out: Path, seed: int):
    profile = cfg.profile()
    phi = cfg.phi()
    sgrid = cfg.strip_grid()
    q, report = cancellation_quantity(profile, phi, sgrid)
    write_csv(out / "cancel.csv", [
        ("sigma", profile.grid.sigma),
        ("q", q.values),
    ])
    metrics = report.to_json_dict()
    return report.gain >= cfg.tol("gain"), metrics


def _cmd_stokes(cfg: RunConfig, out: Path, seed: int):
    grid = cfg.sigma_grid()
    angle = cfg.cone_angle()
    m_values = grid.rfft_zeta
    coeffs = stokes_coefficients(angle, m_values, order=2)
    a0, a1, a2 = coeffs.a

    g_vals = build_symbol_table(grid, angle).g[: m_values.size]
    ratio_gap = float(np.max(np.abs(a1 / a0 - g_vals) / g_vals))

    # third order two ways: ODE recurrence versus direct series
    a3_ode = stokes_a3(coeffs)
    a3_series = third_derivative_series(angle, m_values)
    third_gap = float(np.max(np.abs(a3_series - a3_ode) / np.abs(a3_ode)))

    write_csv(out / "stokes.csv", [
        ("m", m_values),
        ("a0", a0),
        ("a1", a1),
        ("a2", a2),
        ("a3", a3_series),
    ])
    metrics = {"ratio_gap": ratio_gap, "third_order_gap": third_gap}
    passed = ratio_gap <= cfg.tol("stokes") and third_gap <= cfg.tol("stokes")
    return passed, metrics


def _cmd_equilibrium(cfg: RunConfig, out: Path, seed: int):
    grid = cfg.sigma_grid()
    angle = cfg.cone_angle()
    sgrid = cfg.strip_grid()
    params = cfg.physical_params()

    surface = SurfaceTheta(ConeProfile.flat(grid, angle))
    psi = GridFn.zeros(grid)
    rhs_theta, rhs_psi = zakharov_rhs(surface, psi, params, sgrid)
    curv = mean_curvature(surface)
    e2 = electric_functional(surface, params, sgrid)
    write_csv(out / "physics.csv", [
        ("r", grid.r),
        ("Theta", surface.theta_of_r),
        ("H", curv.values),
        ("E2", e2.values),
        ("rhsTheta", rhs_theta.values),
        ("rhsPsi", rhs_psi.values),
    ])
    rel = equilibrium_residual(rhs_psi, curv, params)
    rhs_theta_max = float(np.max(np.abs(rhs_theta.values)))
    metrics = {"c_star": params.C, "rhs_psi_rel": rel,
               "rhs_theta_max": rhs_theta_max}
    passed = rel <= cfg.tol("equilibrium") and rhs_theta_max == 0.0
    return passed, metrics


def _cmd_norms(cfg: RunConfig, out: Path, seed: int):
    profile = cfg.profile()
    phi = cfg.phi()
    u_s, floor = sobolev_functionals(profile, 3.0)
    lhs, rhs = pullback_norm_check(phi, 1)
    equality_gap = abs(lhs - rhs) / rhs
    roundtrip_gap = unknown_round_trip_gap(phi)
    ratios = {}
    for m in (2, 3):
        l_m, r_m = pullback_norm_check(phi, m)
        ratios[f"pullback_ratio_m{m}"] = l_m / r_m
    write_csv(out / "norms.csv", [
        ("u_s", [u_s]),
        ("coercivity_floor", [floor]),
        ("pullback_lhs", [lhs]),
        ("pullback_rhs", [rhs]),
        ("roundtrip_gap", [roundtrip_gap]),
    ])
    metrics = {"u_s": u_s, "coercivity_floor": floor,
               "pullback_equality_gap": equality_gap,
               "roundtrip_gap": roundtrip_gap, **ratios}
    passed = (equality_gap <= cfg.tol("norm_equality")
              and roundtrip_gap <= cfg.tol("norm_roundtrip")
              and floor > 0.0)
    return passed, metrics


_COMMANDS = {
    "angle": (_cmd_angle, "locate the equilibrium opening angle"),
    "symbol": (_cmd_symbol, "tabulate the exact-cone multiplier g"),
    "extend": (_cmd_extend, "harmonic extension of the boundary data"),
    "solve": (_cmd_solve, "strip solve and boundary operator output"),
    "bounds": (_cmd_bounds, "kernel-ratio and Bessel-ratio bound report"),
    "shape-check": (_cmd_shape_check,
                    "shape-derivative formula versus central differences"),
    "cancel-check": (_cmd_cancel_check,
                     "tail-decay gain of the rearranged combination"),
    "stokes": (_cmd_stokes, "graded coefficient table and consistency"),
    "equilibrium": (_cmd_equilibrium, "stationary balance residuals"),
    "norms": (_cmd_norms, "profile norms and pullback checks"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conedn",
        description="verification commands for the conical DN operator")
    parser.add_argument("--version", action="version",
                        version=f"conedn {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cp = sub.add_parser(name, help=help_text)
        cp.add_argument("--config", default=None,
                        help="JSON config file (defaults used when omitted)")
        cp.add_argument("--out", default=None,
                        help="output directory (overrides output.dir)")
        cp.add_argument("--seed", type=int, default=0,
                        help="u64 salt recorded in the config hash")
    args = parser.parse_args(argv)

    if not 0 <= args.seed < 2**64:
        print("conedn: --seed must fit in a u64", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
    except ConfigurationError as exc:
        print(f"conedn: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out if args.out is not None else cfg.raw["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)
    cfg_hash = config_hash(cfg.raw, args.seed)
    command = _COMMANDS[args.subcommand][0]

    try:
        passed, metrics = command(cfg, out, args.seed)
    except (ConfigurationError, DomainError) as exc:
        print(f"conedn: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        write_summary(out / f"{args.subcommand}.json", args.subcommand,
                      False, {"error": str(exc)}, cfg_hash)
        print(f"conedn: {exc}", file=sys.stderr)
        print(f"{args.subcommand}: FAIL")
        return 1

    write_summary(out / f"{args.subcommand}.json", args.subcommand,
                  passed, metrics, cfg_hash)
    if cfg.raw["output"]["plot_script"]:
        write_plot_script(out / "plot.py")
    print(f"{args.subcommand}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
