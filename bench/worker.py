"""One fresh workload process, started by run.py.

    python3 worker.py WORKLOAD --seed N --seconds S --spawned T0 \
        --deadline T1 --mode setup|run|trace [--spans PATH]

Sets up (imports conedn, computes the Taylor angle, generates the inputs,
makes one untimed warm-up operation), then runs the timed operations and
checks every output outside the timed region.  A failed operation is an
``error`` (it raised, or its output broke an invariant) or a ``verdict``
(its output missed a tolerance of the library's own); only errors make
the run incorrect.  ``--spawned`` is the
``time.perf_counter`` reading just before run.py started this process, so
set-up time includes interpreter start.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SOURCE = BENCH.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fingerprint(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def attempt(fn, *args) -> tuple[object, list[str]]:
    """Call an operation or an oracle; an exception is a failure, recorded."""
    try:
        return fn(*args), []
    except Exception as exc:
        return None, [f"{type(exc).__name__}: {exc}"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import conedn
    if Path(conedn.__file__).resolve().parent != SOURCE / "conedn":
        print(f"worker: imported conedn from {conedn.__file__}, not from the "
              "checkout's src", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    rec = None
    if args.mode == "trace":
        rec = spans.Recorder()
        missing = spans.install(rec)
        rec.active = True
        setup_span = rec.open("bench.setup")

    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        ctx = w.setup(Path(tmp))
        ctx["recorder"] = rec
        ctx["timeout"] = lambda: max(1.0, args.deadline - time.perf_counter())
        specs = w.specs(args.seed, w.n_ops(args.seconds))
        inputs = [w.realize(ctx, spec) for spec in specs]
        w.warmup(ctx, args.seed)
        if rec is not None:
            rec.close(setup_span)
            rec.active = False
        first_op = time.perf_counter()
        result = {"setup_s": first_op - args.spawned}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        latencies, cpu, failures, diagnostics = [], 0.0, [], {}
        for i, inp in enumerate(inputs):
            cpu_start = cpu_seconds()
            if rec is not None:
                rec.active = True
                op_span = rec.open("bench.op")
            start = time.perf_counter()
            output, fails = attempt(w.run, ctx, inp)
            latencies.append(time.perf_counter() - start)
            if rec is not None:
                rec.close(op_span)
                rec.active = False
            cpu += cpu_seconds() - cpu_start
            verdicts = []
            if not fails:
                broken, fails = attempt(w.check, ctx, inp, output)
                fails = fails or broken
            if not fails:
                missed, fails = attempt(w.verdicts, ctx, inp, output)
                verdicts = missed or []
                flags, error = attempt(w.diagnostics, ctx, inp, output)
                fails += error
                for name in flags or ():
                    diagnostics[name] = diagnostics.get(name, 0) + 1
            if fails or verdicts:
                failures.append({"op": i, "spec": specs[i],
                                 "kind": "error" if fails else "verdict",
                                 "why": fails or verdicts})
        run_fails = attempt(w.check_run, ctx)
        run_fails = run_fails[1] or run_fails[0]

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if w.subprocesses
                               else resource.RUSAGE_SELF)
    result.update({
        "latencies": latencies,
        "wall_s": sum(latencies),
        "cpu_s": cpu,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "attempted": len(inputs),
        "failed": len(failures),
        "failures": failures,
        "run_failures": run_fails,
        "diagnostics": diagnostics,
        "fingerprint": fingerprint(w.name, args.seed),
    })
    if rec is not None:
        result["run_failures"] += spans.nesting_errors(rec.spans)
        result["layers"] = spans.layer_metrics(rec.spans, len(inputs), diagnostics)
        result["missing_boundaries"] = missing
        if args.spans:
            Path(args.spans).write_text(json.dumps(rec.to_json()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
