"""Tests of the benchmark harness (kept out of the library's test suite).

    python3 -m pytest bench/tests -q

The checkout tests copy ``src``, ``bench`` and ``BENCHMARK.json`` into a
temporary directory and run the harness there, as from a clean checkout
with nothing installed; together they take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def input_bytes(inputs) -> bytes:
    """The realized inputs of one operation as bytes."""
    if isinstance(inputs, tuple):
        return b"".join(input_bytes(x) for x in inputs)
    if isinstance(inputs, dict):          # cli-suite: the config file and seed
        return inputs["config"].read_bytes() + str(inputs["seed"]).encode()
    for attr in ("eta", "values", "h"):
        if hasattr(inputs, attr):
            return input_bytes(getattr(inputs, attr))
    if isinstance(inputs, np.ndarray):
        return inputs.tobytes()
    return repr(inputs).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_operations_and_input_bytes(name, tmp_path):
    w = workloads.WORKLOADS[name]
    first, again, other = w.specs(7, 4), w.specs(7, 4), w.specs(8, 4)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)
    realized = []
    for run_dir in ("a", "b"):
        (tmp_path / run_dir).mkdir()
        ctx = w.setup(tmp_path / run_dir)
        realized.append([input_bytes(w.realize(ctx, spec)) for spec in w.specs(7, 4)])
    assert realized[0] == realized[1]


@pytest.mark.parametrize("name", ["strip-solve", "flat-kernel"])
def test_operation_does_not_depend_on_list_length(name):
    w = workloads.WORKLOADS[name]
    assert w.specs(3, 5)[:3] == w.specs(3, 3)


def test_cli_suite_repeats_its_first_variant_last():
    specs = workloads.WORKLOADS["cli-suite"].specs(5, 3)
    assert specs[-1] == specs[0] and specs[1] != specs[0]


def test_catalog_shapes_are_shared_by_every_seed():
    """Verdict-bearing shapes come from the catalog; the seed moves the
    data's amplitude, to which the verdicts do not respond."""
    def shapes(spec):
        return json.dumps(spec, sort_keys=True, default=str)

    strip_solve = workloads.WORKLOADS["strip-solve"]
    one, two = strip_solve.specs(1, 30), strip_solve.specs(2, 30)
    for i in range(0, 30, 5):
        assert one[i]["profile"] is None and one[i]["theta"] == two[i]["theta"]
        assert one[i]["phi"]["amplitude"] != two[i]["phi"]["amplitude"]
        assert (dict(one[i]["phi"], amplitude=0) == dict(two[i]["phi"], amplitude=0))
    assert all(spec["profile"] is not None for i, spec in enumerate(one) if i % 5)
    assert len({shapes(one[i]) for i in (0, 5, 10)}) == 3
    assert one[15]["theta"] == one[0]["theta"]          # the catalog cycles

    cli_suite = workloads.WORKLOADS["cli-suite"]
    one, two = cli_suite.specs(1, 2)[0], cli_suite.specs(2, 2)[0]
    assert one["config"]["cone"] == two["config"]["cone"]
    assert one["config"]["physics"] != two["config"]["physics"]


def test_tail_rule():
    ms = [float(i) for i in range(1, 101)]          # 1..100
    assert run.tail(ms) == (90.0, 90.0)             # ten operations beyond 90
    assert run.tail(ms[:20]) == (10.0, 50.0)
    # below twenty operations the rule would land at or below the median
    assert run.tail(ms[:19]) == (19.0, 100.0)
    assert run.tail(ms[:18]) == (18.0, 100.0)       # flat-kernel at 30 s
    assert run.tail(ms[:30]) == (20.0, 100.0 * 20 / 30)   # strip-solve at 30 s
    assert run.tail(ms[:10]) == (10.0, 100.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail(list(reversed(ms))) == (90.0, 90.0)


def test_names_and_units_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(run.THREADS) == sorted(workloads.WORKLOADS)
    fake = {"latencies": [0.5, 0.25], "wall_s": 0.75, "cpu_s": 0.7,
            "peak_rss_mb": 90.0, "failed": 0, "attempted": 2}
    metrics, _ = run.end_to_end([1.0, 2.0, 3.0], fake)
    assert [(n, u) for n, (_, u) in metrics.items()] == \
        [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert spans.per_layer_names() == [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def test_fail_frac_is_never_zero_and_counts_failures():
    fake = {"latencies": [1.0] * 8, "wall_s": 8.0, "cpu_s": 8.0,
            "peak_rss_mb": 1.0, "failed": 0, "attempted": 8}
    clean = run.end_to_end([1.0], fake)[0]["fail_frac"][0]
    one = run.end_to_end([1.0], dict(fake, failed=1))[0]["fail_frac"][0]
    assert 0.0 < clean < one == 2 * clean


def test_removed_boundary_counts_zero(monkeypatch):
    monkeypatch.setattr(spans, "BOUNDARIES", spans.BOUNDARIES + (
        ("conedn.strip", "no_such_solver", "strip.solve_strip", None),
        ("conedn.no_such_module", "solve", "strip.solve_strip", None)))
    rec = spans.Recorder()
    missing = spans.install(rec)
    assert missing == ["conedn.strip.no_such_solver", "conedn.no_such_module.solve"]
    values = spans.layer_metrics([], 1, {})
    assert values["strip.solve_strip.calls"] == 0.0


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "cpu_s": 3.0 if name == "strip.cho" else 0.0,
            "size": 8 if name == "strip.solve_strip" else 0}


NESTED = [span("bench.op", 0.0, 10.0, -1), span("strip.dn_general", 1.0, 9.0, 0),
          span("strip.solve_strip", 2.0, 7.0, 1), span("strip.cho", 3.0, 5.0, 2),
          span("bench.setup", -5.0, -1.0, -1), span("conical.taylor_angle", -4.0, -3.0, 4)]


def test_self_times_account_for_the_wall():
    rec = spans.Recorder()
    rec.adopt(NESTED, parent=-1)
    assert spans.nesting_errors(rec.spans) == []
    values = spans.layer_metrics(rec.spans, 1, {})
    assert values["trace.wall_s"] == 10.0
    assert sum(values[f"{layer}.self_s"] for layer in spans.LAYERS) == 10.0
    assert values["strip.self_s"] == 8.0 and values["bench.self_s"] == 2.0
    assert values["strip.solve_strip.self_s"] == 3.0
    assert values["strip.unknowns"] == 8.0
    assert values["strip.cho.cpu_per_wall"] == 1.5
    assert values["conical.taylor_angle.calls"] == 1.0    # set-up counts too
    assert values["conical.self_s"] == 0.0                # but not in the layers


@pytest.mark.parametrize("bad", [
    span("strip.cho", 6.0, 8.0, 2),                  # ends after its parent
    span("strip.cho", 2.5, 6.5, 2),                  # children cover more than it
])
def test_spans_that_do_not_nest_are_reported(bad):
    rec = spans.Recorder()
    rec.adopt(NESTED + [bad], parent=-1)
    assert spans.nesting_errors(rec.spans)


# ---------------------------------------------------------------------------
# runs from a copied checkout
# ---------------------------------------------------------------------------

def files_under(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns(".work", "results", "__pycache__")
    shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    shutil.copytree(BENCH, root / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def bench(root: Path, *args) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_checkout_run_reports_every_metric_and_writes_only_below_bench(checkout):
    before = files_under(checkout)
    names = []
    for seed, trace, listed in ((3, "0", "end_to_end"), (4, "0", "end_to_end"),
                                (3, "1", "per_layer")):
        result = result_of(bench(checkout, "--workload", "strip-solve", "--seed",
                                 str(seed), "--seconds", "1", "--trace", trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        got = [(n, m["unit"]) for n, m in result["metrics"].items()]
        assert got == [(m["name"], m["unit"]) for m in SPEC[listed]]
        names.append(got)
    assert names[0] == names[1]
    assert all(p.startswith("bench/") for p in files_under(checkout) - before)


def test_cli_suite_writes_its_outputs_below_bench(checkout):
    before = files_under(checkout)
    result = result_of(bench(checkout, "--workload", "cli-suite", "--seed", "1",
                             "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["attempted"] == 2
    added = files_under(checkout) - before
    assert added and all(p.startswith("bench/results/") for p in added)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "strip-solve", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout.strip() == ""
