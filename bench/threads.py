"""BLAS threading at the default grid: one thread against the default.

    python3 bench/threads.py

Times ``dn_general`` at (128, 64) in a fresh process, and the CLI's
``shape-check`` and ``cancel-check`` subcommands as subprocesses, once with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 and once
with them unset, and prints the median wall and CPU time of REPEATS runs.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from run import BENCH, ROOT, worker_env

REPEATS = 5

SOLVE = """
import json, time
import numpy as np
from conedn import ConeProfile, GridFn, SigmaGrid, StripGrid, dn_general, taylor_angle
grid = SigmaGrid(L=8.0, n_sigma=128)
s = grid.sigma
profile = ConeProfile(taylor_angle(), GridFn(grid, 0.1 * np.exp(-(s / 1.5) ** 2)))
phi = GridFn(grid, np.exp(-(s / 1.8) ** 2))
sgrid = StripGrid(sigma=grid, n_y=64)
dn_general(profile, phi, sgrid)
times = []
for _ in range(%d):
    start = time.perf_counter(), time.process_time()
    dn_general(profile, phi, sgrid)
    times.append((time.perf_counter() - start[0], time.process_time() - start[1]))
print(json.dumps(times))
"""


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed(cmd: list[str], env: dict) -> tuple[float, float, str]:
    cpu, start = children_cpu(), time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    return time.perf_counter() - start, children_cpu() - cpu, proc.stdout


def main() -> int:
    (BENCH / ".work").mkdir(exist_ok=True)
    print(f"{'case':34s} {'threads':>8s} {'wall s':>8s} {'cpu s':>8s}")
    for threads in ("1", None):
        env = worker_env(threads)
        label = threads or "default"
        _, _, out = timed([sys.executable, "-c", SOLVE % REPEATS], env)
        runs = json.loads(out)
        print(f"{'dn_general (128, 64)':34s} {label:>8s} "
              f"{statistics.median(r[0] for r in runs):8.3f} "
              f"{statistics.median(r[1] for r in runs):8.3f}")
        with tempfile.TemporaryDirectory(dir=BENCH / ".work") as out_dir:
            for name in ("shape-check", "cancel-check"):
                runs = [timed([sys.executable, "-m", "conedn.cli", name,
                               "--out", out_dir], env)
                        for _ in range(REPEATS)]
                print(f"{'conedn ' + name + ' (subprocess)':34s} {label:>8s} "
                      f"{statistics.median(r[0] for r in runs):8.3f} "
                      f"{statistics.median(r[1] for r in runs):8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
