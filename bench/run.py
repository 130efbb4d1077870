"""conedn benchmark: one workload, one seed, one line of metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; conedn is imported from ``src`` without
being installed.  Each workload runs in fresh worker processes with its
BLAS threading fixed here.

``--trace 0`` prints the end-to-end metrics.  Set-up is measured in
SETUPS fresh processes and reported as their median; the last of them goes
on to run the workload's operation list, whose length is fixed by the
workload and ``--seconds``.

``--trace 1`` runs the list once untraced and once in a traced process, and
prints the per-layer metrics of the traced run and the tracing overhead.

The last line of standard output is the result JSON; the line before it,
starting ``info:``, carries the environment fingerprint, the tail
percentile and sample count, and any failures.  The full record, and the
spans of a traced run, are written to ``bench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import per_layer_names

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
RESULTS = BENCH / "results"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BLAS threads per workload; None leaves the machine default, as a CLI user
# gets it.  The one-thread workloads keep spinning BLAS threads from
# inflating time on a 2-core machine.
THREADS = {"strip-solve": "1", "flat-kernel": "1", "cli-suite": None}
SETUPS = 3
BUDGET_S = 170.0        # the whole run, so that it ends within 180 s
TAIL_BEYOND = 10


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND operations beyond
    it, as (value, percentile).  With fewer than 2 * TAIL_BEYOND operations
    that percentile would lie at or below the median, so the maximum is
    reported, as percentile 100."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def worker_env(threads: str | None) -> dict:
    """The environment of a benchmark process: conedn from src, and the
    BLAS thread count (None: the variables unset, the machine default)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # write no bytecode into src: every process compiles conedn afresh
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env.pop(var, None)
        if threads is not None:
            env[var] = threads
    return env


def spawn(args, mode: str, deadline: float, spans: Path | None = None) -> dict:
    spawned = time.perf_counter()
    cmd = [sys.executable, str(BENCH / "worker.py"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--spawned", repr(spawned), "--deadline", repr(deadline - 5.0),
           "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=worker_env(THREADS[args.workload]), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], run: dict) -> tuple[dict, dict]:
    lat = run["latencies"]
    tail_s, percentile = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (run["wall_s"], "s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "cpu_s": (run["cpu_s"], "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        # rule of succession, (failed + 1) / (attempted + 2): never zero,
        # and one new failure shows as a large relative change
        "fail_frac": ((run["failed"] + 1) / (run["attempted"] + 2), "ratio"),
    }
    info = {"setups_s": setups, "op_tail_percentile": percentile,
            "op_samples": len(lat)}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(THREADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "conedn" / "__init__.py").is_file():
        print(f"bench: no conedn source at {SOURCE}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + BUDGET_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            plain = spawn(args, "run", deadline)
            run = spawn(args, "trace", deadline, RESULTS / f"{stem}.spans.json")
            values = dict(run["layers"])
            values["trace.overhead_frac"] = (run["wall_s"] - plain["wall_s"]) / plain["wall_s"]
            metrics = {name: (values[name], unit) for name, unit in per_layer_names()}
            info = {"missing_boundaries": run["missing_boundaries"]}
            runs = [plain, run]
        else:
            setups = [spawn(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUPS - 1)]
            run = spawn(args, "run", deadline)
            metrics, info = end_to_end(setups + [run["setup_s"]], run)
            runs = [run]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    failures = [f for r in runs for f in r["failures"]]
    run_failures = [f for r in runs for f in r["run_failures"]]
    info.update({"fingerprint": run["fingerprint"], "failures": failures,
                 "run_failures": run_failures,
                 "diagnostics": run["diagnostics"]})
    result = {
        "correct": not run_failures and all(f["kind"] == "verdict" for f in failures),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"info": info, "latencies_s": [r["latencies"] for r in runs],
              "result": result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
