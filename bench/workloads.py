"""The benchmark's workloads: seeded operation lists, operations, oracles.

Every workload repeats one kind of operation at one grid size; only the
inputs vary.  Operation ``i`` of seed ``s`` is drawn from its own
``random.Random`` stream, so it does not depend on how many operations a
run makes, and the same seed always gives the same list.

Where a library verdict hangs on the input's shape, the shape comes from a
catalog: a fixed draw of the same distribution, the first one made and not
selected, that every seed shares.  The seed then varies what the verdict
does not depend on (the data's amplitude and sign, to which the solves are
linear) and every other input.  So each run meets the same baseline
failures, and ``fail_frac`` compares across seeds.

The library is called through module attributes (``strip.dn_general``), the
names the traced run wraps.  Oracles run outside the timed region and
return a list of failure messages, empty when the output is right.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import conedn.conical as conical
import conedn.config as config
import conedn.flat as flat
import conedn.physics as physics
import conedn.strip as strip
from conedn.grid import GridFn, SigmaGrid, l2_norm
from spans import CLI_COMMANDS

PI = math.pi
THETA_RANGE = (0.15 * PI, 0.85 * PI)    # includes exterior-type angles > pi/2
SIGMA_L = 8.0
KINDS = ("gaussian", "bump", "mode")

# tolerances of the oracles (the CLI's defaults where one exists)
SOLVE_FACTOR = 0.5          # tol.solve_factor: flat gap <= factor * dy^2
TRACE_IDENTITY = 1e-12      # g + V eta_s - B = 0 holds to rounding
TRACE_GAP = 1e-9            # tol.trace
BESSEL_SLACK = 1e-9         # tol.bessel
EQUILIBRIUM = 1e-10         # tol.equilibrium


def op_rng(workload: str, seed, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def catalog_rng(workload: str, entry: int) -> random.Random:
    """Stream of catalog entry ``entry``: the same for every seed."""
    return op_rng(workload, "catalog", entry)


def amplitude(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)


def expression(rng: random.Random, amplitude: float, widths=(0.4, 3.0),
               max_frequency: int = 8) -> dict:
    """A config expression node of a random kind."""
    kind = rng.choice(KINDS)
    if kind == "mode":
        return {"kind": kind, "amplitude": amplitude,
                "frequency": rng.randint(1, max_frequency)}
    return {"kind": kind, "amplitude": amplitude, "width": rng.uniform(*widths)}


def profile_expression(rng: random.Random, theta: float, reach: float) -> dict:
    """Perturbation whose sup is a share of at most ``reach`` of the
    ConeProfile limit min(theta, pi - theta)."""
    limit = min(theta, PI - theta)
    return expression(rng, rng.choice((-1.0, 1.0)) * rng.uniform(0.05, reach) * limit)


def data_expression(rng: random.Random) -> dict:
    return expression(rng, amplitude(rng), widths=(0.8, 3.0), max_frequency=12)


def taylor_profile(rng: random.Random) -> dict:
    """A perturbation of the Taylor cone of a random kind, sup up to 0.25."""
    return expression(rng, rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.25),
                      widths=(1.0, 2.5), max_frequency=4)


def gaussian(rng: random.Random, amplitude: float, widths) -> dict:
    return {"kind": "gaussian", "amplitude": amplitude, "width": rng.uniform(*widths)}


def finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a)))) for a in arrays)


class Workload:
    name = ""
    ops_per_second = 1.0                # list length per --seconds
    min_ops = 1
    subprocesses = False

    def n_ops(self, seconds: float) -> int:
        return max(self.min_ops, round(self.ops_per_second * seconds))

    def specs(self, seed: int, n: int) -> list[dict]:
        return [self.spec(op_rng(self.name, seed, i), i) for i in range(n)]

    def warmup(self, ctx: dict, seed: int) -> None:
        """One untimed operation, so lazy caches are filled before timing."""
        self.run(ctx, self.realize(ctx, self.warmup_spec(ctx, seed)))

    def warmup_spec(self, ctx: dict, seed: int) -> dict:
        return self.spec(op_rng(self.name, seed, "warmup"), 0)

    def setup(self, workdir: Path) -> dict:
        """Run-wide context; the Taylor angle is part of every set-up."""
        return {"taylor": conical.taylor_angle(), "workdir": workdir}

    def spec(self, rng: random.Random, index: int) -> dict:
        raise NotImplementedError

    def realize(self, ctx: dict, spec: dict):
        raise NotImplementedError

    def run(self, ctx: dict, inputs):
        raise NotImplementedError

    def check(self, ctx: dict, inputs, output) -> list[str]:
        """Invariants every correct output keeps: a miss fails the
        operation and makes the run incorrect."""
        raise NotImplementedError

    def verdicts(self, ctx: dict, inputs, output) -> list[str]:
        """Tolerances the library sets for itself (the CLI's verdicts).  A
        miss fails the operation and counts in ``fail_frac``, but leaves
        the run correct: the seed commit misses some on ordinary inputs."""
        return []

    def check_run(self, ctx: dict) -> list[str]:
        """Run-wide oracle, made once outside the timed region."""
        return []

    def diagnostics(self, ctx: dict, inputs, output) -> tuple[str, ...]:
        """Names of the diagnostic counters an output raises: verdicts of
        the library that are recorded, and are not failures."""
        return ()


DEFAULT_DATA = {"kind": "gaussian", "amplitude": 1.0, "width": 1.8}   # the CLI's phi


def taylor_cone_spec(ctx: dict) -> dict:
    """The exact Taylor cone with the CLI's default data."""
    return {"theta": ctx["taylor"].theta_star, "profile": None, "phi": DEFAULT_DATA}


class StripSolve(Workload):
    name = "strip-solve"
    ops_per_second = 1.0
    n_sigma, n_y = 256, 128
    flat_every = 5          # every fifth operation is on the exact cone
    flat_catalog = 3        # exact-cone operations cycle through three entries
    reach = 0.95

    def spec(self, rng, index):
        """On the exact cone the angle and the data's shape come from the
        catalog, and the seed draws the data's amplitude and sign: the
        relative gap to dn_flat, which the verdict tests, does not depend
        on them."""
        if index % self.flat_every:
            theta = rng.uniform(*THETA_RANGE)
            return {"theta": theta,
                    "profile": profile_expression(rng, theta, self.reach),
                    "phi": data_expression(rng)}
        entry = catalog_rng(self.name, index // self.flat_every % self.flat_catalog)
        theta = entry.uniform(*THETA_RANGE)
        return {"theta": theta, "profile": None,
                "phi": dict(data_expression(entry), amplitude=amplitude(rng))}

    def warmup_spec(self, ctx, seed):
        return taylor_cone_spec(ctx)

    def realize(self, ctx, spec):
        grid = SigmaGrid(L=SIGMA_L, n_sigma=self.n_sigma)
        angle = conical.ConeAngle(spec["theta"])
        tilde = (GridFn.zeros(grid) if spec["profile"] is None
                 else config.build_expression(grid, spec["profile"]))
        return (strip.ConeProfile(theta_star=angle, eta_tilde=tilde),
                config.build_expression(grid, spec["phi"]),
                strip.StripGrid(sigma=grid, n_y=self.n_y))

    def run(self, ctx, inputs):
        return strip.dn_general(*inputs)

    def check(self, ctx, inputs, res):
        profile, phi, sgrid = inputs
        g = res.g_of_phi.real_values(tol=1e-8)
        b = res.b_normal.real_values(tol=1e-8)
        v = res.v_tangential.real_values(tol=1e-8)
        if not finite(g, b, v, res.field.values):
            return ["non-finite output"]
        fails = []
        identity = np.max(np.abs(g + v * profile.eta_sigma - b))
        scale = max(np.max(np.abs(g)), np.max(np.abs(b)), 1.0)
        if identity > TRACE_IDENTITY * scale:
            fails.append(f"trace identity off by {identity:.3e}")
        phiv = phi.real_values(tol=1e-10)
        energy = float(np.sum(phiv * np.sin(profile.eta) * g))
        if not energy > 0.0:
            fails.append(f"weighted energy {energy:.3e} not positive")
        return fails

    def verdicts(self, ctx, inputs, res):
        """The CLI's `solve` verdict on the exact cone: gap <= 0.5 dy^2."""
        gap = self.flat_gap(inputs, res)
        tol = SOLVE_FACTOR * inputs[2].delta_y ** 2
        if gap is None or gap <= tol:
            return []
        return [f"flat gap {gap:.3e} above {tol:.3e}"]

    @staticmethod
    def flat_gap(inputs, res) -> float | None:
        """Relative L2 gap to dn_flat on an unperturbed cone, else None."""
        profile, phi, _ = inputs
        if profile.sup_tilde != 0.0:
            return None
        table = flat.build_symbol_table(profile.grid, profile.theta_star)
        ref = flat.dn_flat(phi, table)
        return (l2_norm(GridFn(profile.grid, res.g_of_phi.values - ref.values))
                / l2_norm(phi))


class FlatKernel(Workload):
    name = "flat-kernel"
    ops_per_second = 0.6      # 18 operations in 30 s, so the tail is the maximum
    n_sigma = 1024
    stations = 32
    zeta_max = 100.0

    strata = 8

    def spec(self, rng, index):
        """Operation i draws its angle within stratum i mod 8 of the range:
        the cost grows with theta*, and every list should cover the range
        alike, whatever the seed."""
        lo, hi = THETA_RANGE
        share = (index % self.strata + rng.random()) / self.strata
        return {"theta": lo + share * (hi - lo), "phi": data_expression(rng)}

    def warmup_spec(self, ctx, seed):
        return taylor_cone_spec(ctx)

    def realize(self, ctx, spec):
        grid = SigmaGrid(L=SIGMA_L, n_sigma=self.n_sigma)
        return (grid, conical.ConeAngle(spec["theta"]),
                config.build_expression(grid, spec["phi"]))

    def run(self, ctx, inputs):
        grid, angle, phi = inputs
        table = flat.build_symbol_table(grid, angle)
        fractions = np.arange(1, self.stations + 1) / self.stations
        return (table, flat.dn_flat(phi, table),
                flat.extend_flat(phi, fractions * angle.theta_star, table),
                flat.verify_kernel_bounds(table, zeta_max=self.zeta_max))

    def check(self, ctx, inputs, output):
        table, g_phi, field, report = output
        fails = []
        g = table.g
        half = inputs[0].n_sigma // 2
        if not (finite(g) and np.all(g > 0.0)
                and np.array_equal(g[1:half][::-1], g[half + 1:])):
            fails.append("symbol table not finite, positive and even")
        if not finite(g_phi.values, field.values):
            fails.append("non-finite multiplier or extension")
        if not finite(report.s_sup):
            fails.append("kernel suprema not finite")
        return fails

    def verdicts(self, ctx, inputs, output):
        _, _, field, report = output
        fails = []
        phi = inputs[2].real_values(tol=1e-9)
        gap = float(np.max(np.abs(field.boundary_trace() - phi)))
        if not gap <= TRACE_GAP:
            fails.append(f"extension trace gap {gap:.3e}")
        if not (report.bessel_sup <= 1.0 + BESSEL_SLACK
                and report.bessel_weighted_sup <= 3.0 + BESSEL_SLACK):
            fails.append("Bessel bounds exceeded")
        return fails

    def diagnostics(self, ctx, inputs, output):
        """verify_kernel_bounds says no while the oracle's values and
        Bessel bounds hold: its S-plateau spread criterion failed."""
        return () if output[3].passed else ("flat.bounds_plateau_fail.count",)


def equilibrium_errors(taylor) -> list[str]:
    """The flat Taylor cone with psi = 0 and C = C* is in balance, at the
    default grid (128, 64): relative residual at most 1e-10 and an exactly
    zero rhs_Theta."""
    grid = SigmaGrid(L=SIGMA_L, n_sigma=128)
    base = physics.PhysicalParams(kappa=1.0, rho=1.0, epsilon=1.0, C=1.0)
    params = physics.PhysicalParams(kappa=1.0, rho=1.0, epsilon=1.0,
                                    C=physics.equilibrium_constant(base, taylor))
    surface = physics.SurfaceTheta(strip.ConeProfile.flat(grid, taylor))
    rhs_theta, rhs_psi = physics.zakharov_rhs(surface, GridFn.zeros(grid), params,
                                              strip.StripGrid(sigma=grid, n_y=64))
    yard = (params.kappa / params.rho) * float(np.max(np.abs(
        physics.mean_curvature(surface).values)))
    rel = float(np.max(np.abs(rhs_psi.values))) / yard
    fails = []
    if not rel <= EQUILIBRIUM:
        fails.append(f"equilibrium residual {rel:.3e}")
    if float(np.max(np.abs(rhs_theta.values))) != 0.0:
        fails.append("equilibrium rhs_Theta not exactly zero")
    return fails


TRACED_CLI = Path(__file__).with_name("traced_cli.py")


def _finite_leaves(node) -> bool:
    if isinstance(node, dict):
        return all(_finite_leaves(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_leaves(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


class CliSuite(Workload):
    name = "cli-suite"
    ops_per_second = 0.05   # a pass takes about 20 s
    subprocesses = True     # peak memory is that of the largest child
    min_ops = 2             # the first and the last pass repeat one variant

    def specs(self, seed, n):
        out = [self.spec(op_rng(self.name, seed, i), i) for i in range(n - 1)]
        return out + [dict(out[0])]

    def spec(self, rng, index):
        """The cone profile, the data's shape and the shape-check direction
        and step come from one catalog entry: a 30 s run makes two passes
        of one variant, so a verdict drawn afresh per seed would move
        fail_frac between 1/4 and 3/4 by chance.  The seed draws the data's
        amplitude and sign, the physical constants and the CLI seed."""
        entry = catalog_rng(self.name, 0)
        return {"config": {
                    "cone": {"eta_tilde": taylor_profile(entry)},
                    "phi": gaussian(entry, amplitude(rng), (1.2, 3.0)),
                    "shape": {"direction": gaussian(entry, entry.uniform(0.5, 1.5), (1.5, 2.5)),
                              "epsilon": entry.uniform(5e-4, 2e-3)},
                    "physics": {key: rng.uniform(0.5, 2.0)
                                for key in ("kappa", "rho", "epsilon")}},
                "seed": rng.randrange(2**32)}

    def realize(self, ctx, spec):
        """Write the variant's config file; the pass writes into its own
        output directory below the run's scratch directory."""
        index = ctx.setdefault("passes", 0)
        ctx["passes"] = index + 1
        root = ctx["workdir"] / f"pass{index:03d}"
        root.mkdir(parents=True)
        path = root / "config.json"
        path.write_text(json.dumps(spec["config"], sort_keys=True))
        return {"config": path, "out": root / "out", "seed": spec["seed"]}

    def warmup(self, ctx, seed):
        """One `angle` subprocess: it imports the whole package, as every
        subcommand does, so file caches are as warm as after a pass."""
        out = ctx["workdir"] / "warmup"
        self._subprocess(ctx, ["angle", "--out", str(out)])

    def run(self, ctx, inputs):
        results = []
        for name in CLI_COMMANDS:
            code, stdout = self._subprocess(ctx, [
                name, "--config", str(inputs["config"]), "--out", str(inputs["out"]),
                "--seed", str(inputs["seed"])])
            results.append((name, code, stdout))
        return results

    def _subprocess(self, ctx, args):
        """Run one subcommand; under tracing, through traced_cli.py, which
        installs the wrappers, with its spans adopted under this one."""
        rec = ctx.get("recorder")
        if rec is None or not rec.active:
            proc = subprocess.run([sys.executable, "-m", "conedn.cli", *args],
                                  capture_output=True, text=True,
                                  timeout=ctx["timeout"]())
            return proc.returncode, proc.stdout
        spans_path = ctx["workdir"] / "spans.json"
        spans_path.unlink(missing_ok=True)
        index = rec.open("cli.subprocess")
        try:
            proc = subprocess.run([sys.executable, str(TRACED_CLI), str(spans_path),
                                   *args], capture_output=True, text=True,
                                  timeout=ctx["timeout"]())
        finally:
            rec.close(index)
        rec.adopt(json.loads(spans_path.read_text()), index)
        return proc.returncode, proc.stdout

    def check(self, ctx, inputs, results):
        """Every subcommand ends with its verdict line, exit code to match,
        and a summary with finite metrics and no evaluation error."""
        fails = []
        for name, code, stdout in results:
            lines = stdout.strip().splitlines()
            verdict = {0: f"{name}: PASS", 1: f"{name}: FAIL"}.get(code)
            if not lines or lines[-1] != verdict:
                fails.append(f"{name} exited {code}")
                continue
            metrics = json.loads((inputs["out"] / f"{name}.json").read_text())["metrics"]
            if "error" in metrics or not _finite_leaves(metrics):
                fails.append(f"{name} summary has an error or non-finite metrics")
        return fails

    def verdicts(self, ctx, inputs, results):
        return [f"{name}: FAIL" for name, code, _ in results if code == 1]

    def check_run(self, ctx):
        """The repeated variant wrote byte-identical summaries, `angle`
        agrees with taylor_angle(), and the Taylor cone is in balance."""
        first, last = ctx["workdir"] / "pass000" / "out", \
            ctx["workdir"] / f"pass{ctx['passes'] - 1:03d}" / "out"
        fails = [f"{name} summary differs between repeated passes"
                 for name in CLI_COMMANDS
                 if (first / f"{name}.json").read_bytes()
                 != (last / f"{name}.json").read_bytes()]
        angle = json.loads((first / "angle.json").read_text())
        if angle["metrics"]["theta_star"] != ctx["taylor"].theta_star:
            fails.append("angle subcommand disagrees with taylor_angle()")
        return fails + equilibrium_errors(ctx["taylor"])


WORKLOADS = {w.name: w for w in (StripSolve(), FlatKernel(), CliSuite())}
