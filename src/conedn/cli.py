"""Batch verification commands.

Each subcommand runs one check of :mod:`conedn.checks`, prints its lines,
writes its field dumps, its CSV tables and a JSON summary into the output
directory, prints a PASS/FAIL line, and exits 0 when every clause holds
against its threshold, a constant of the package, not of the config.  Numerical
failures, a non-finite metric or CSV cell among them, exit 1 with the
summary still written; configuration and domain rejections exit 2.  This
module parses, writes and picks the exit code; it computes nothing.
"""

import argparse
import os
import sys
from pathlib import Path

from . import __version__

# A CLI process runs BLAS on one thread unless its caller chose a count: its
# BLAS work is a few small matrix-vector products, and OpenBLAS's default
# pool adds a thread that spins on them.  BLAS reads these variables when
# numpy loads, so they are set before the first numpy import, and only when
# numpy is not loaded yet: importing this module into a running program
# changes nothing.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")

from . import checks
from .config import load_config
from .errors import ConfigurationError, DomainError, EvaluationError
from .io import config_hash, write_csv, write_field_binary, write_summary

_COMMANDS = {
    "angle": (checks.angle, "locate the equilibrium opening angle"),
    "symbol": (checks.symbol, "tabulate the exact-cone multiplier g"),
    "extend": (checks.extend, "harmonic extension of the boundary data"),
    "solve": (checks.solve, "strip solve and boundary operator output"),
    "bounds": (checks.bounds, "kernel-ratio and Bessel-ratio bound report"),
    "shape-check": (checks.shape_check,
                    "shape-derivative formula versus central differences"),
    "cancel-check": (checks.cancel_check,
                     "tail-decay gain of the rearranged combination"),
    "stokes": (checks.stokes, "graded coefficient table and consistency"),
    "equilibrium": (checks.equilibrium, "stationary balance residuals"),
    "norms": (checks.norms, "profile norms and pullback checks"),
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
        cp.add_argument("--out", default="out", help="output directory")
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

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"conedn: cannot create output directory {out}: {exc}", file=sys.stderr)
        return 2
    cfg_hash = config_hash(cfg.raw, args.seed)
    command = _COMMANDS[args.subcommand][0]

    try:
        check = command(cfg)
        for line in check.lines:
            print(line)
        for name, field in check.fields.items():
            write_field_binary(out / name, field)
        for name, columns in check.tables.items():
            write_csv(out / name, columns)
        write_summary(out / f"{args.subcommand}.json", args.subcommand,
                      check.passed, check.metrics, cfg_hash)
    except (ConfigurationError, DomainError) as exc:
        print(f"conedn: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        write_summary(out / f"{args.subcommand}.json", args.subcommand,
                      False, {"error": str(exc)}, cfg_hash)
        print(f"conedn: {exc}", file=sys.stderr)
        print(f"{args.subcommand}: FAIL")
        return 1

    print(f"{args.subcommand}: {'PASS' if check.passed else 'FAIL'}")
    return 0 if check.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
