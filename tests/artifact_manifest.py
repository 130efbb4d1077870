"""The artifact manifest: every subcommand at four configs, hashed.

Each case runs one subcommand through ``conedn.cli.main`` in this process,
at ``--seed 7``, and records its exit code, stdout, stderr and one SHA-256
per written file.  ``artifact_manifest.json`` holds the cases of the tree
that wrote it, with the Python and numpy versions it ran under, and
``test_artifact_manifest.py`` compares a fresh run with it byte for byte.

Run as a script to rewrite the manifest from the current tree::

    PYTHONPATH=src python tests/artifact_manifest.py [--baseline REV]

Before it writes, it prints each case whose exit code, stdout, stderr or
files moved and, for each moved file, how far each CSV column, field dump
and summary metric moved against the same cases run on the source of git
revision REV (default HEAD): a column or a field by its largest change
over its largest old magnitude, a metric by its change over its old value.
A number-moving change copies that printout into CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).with_name("artifact_manifest.json")
SEED = 7
_FLAT = {"kind": "gaussian", "amplitude": 0.0, "width": 1.5}
#: the configs every refactor keeps byte-identical; None is the default
CONFIGS = {
    "default": None,
    "theta 3.14 flat": {"cone": {"theta_star": 3.14, "eta_tilde": _FLAT}},
    "theta 2.8": {"cone": {"theta_star": 2.8}},
    "theta 0.3": {"cone": {"theta_star": 0.3}},
}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def run_cases(root: Path) -> dict:
    """Run the ten subcommands at each config, writing into
    root/<config>/<subcommand>; returns {"<config>/<subcommand>": record}."""
    from conedn.cli import _COMMANDS, main

    cases = {}
    for name, config in CONFIGS.items():
        base = root / name.replace(" ", "-")
        base.mkdir(parents=True)
        argv = ["--seed", str(SEED)]
        if config is not None:
            (base / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(base / "config.json")]
        for sub in _COMMANDS:
            out = base / sub
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([sub, "--out", str(out)] + argv)
            files = sorted(out.iterdir()) if out.is_dir() else []
            cases[f"{name}/{sub}"] = {
                "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}}
    return cases


def _moved_files(a: dict, b: dict) -> list[str]:
    """The files of two records of one case whose hashes differ."""
    return [name for name in sorted(a["files"].keys() | b["files"].keys())
            if a["files"].get(name) != b["files"].get(name)]


def moved_cases(old: dict, new: dict) -> list[str]:
    """One line per case entry that differs between two case tables."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            lines.append(f"{key}: case {'added' if a is None else 'removed'}")
            continue
        for part in ("exit", "stdout", "stderr"):
            if a[part] != b[part]:
                lines.append(f"{key}: {part} {a[part]!r} -> {b[part]!r}")
        lines += [f"{key}: file {name} moved" for name in _moved_files(a, b)]
    return lines


# ---- the writer's report of how far the moved numbers moved ------------

def _relative(old: np.ndarray, new: np.ndarray) -> float:
    """max |new - old| / max |old| over the entries, so a scalar's change
    relative to itself; inf where an old zero became nonzero."""
    if old.shape != new.shape:
        return math.inf
    gap = float(np.max(np.abs(new - old), initial=0.0))
    if gap == 0.0:
        return 0.0
    scale = float(np.max(np.abs(old), initial=0.0))
    return gap / scale if scale else math.inf


def _flatten(value, key: str, out: dict) -> dict:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{key}.{k}" if key else k, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{key}[{i}]", out)
    else:
        out[key] = value
    return out


def _file_changes(old: Path, new: Path) -> list[str]:
    """How far each CSV column, field dump or summary metric moved between
    two copies of one artifact, by :func:`_relative`."""
    if not old.exists() or not new.exists():
        return [f"  {new.name}: {'added' if not old.exists() else 'removed'}"]
    if new.suffix == ".csv":
        a = np.genfromtxt(old, delimiter=",", names=True)
        b = np.genfromtxt(new, delimiter=",", names=True)
        lines = []
        for c in sorted(set(a.dtype.names) | set(b.dtype.names)):
            if c not in a.dtype.names or c not in b.dtype.names:
                lines.append(f"  {new.name} column {c}: added or removed")
            elif not np.array_equal(a[c], b[c]):
                lines.append(f"  {new.name} column {c}: {_relative(a[c], b[c]):.3g}")
        return lines
    if new.suffix == ".json":
        a = _flatten(json.loads(old.read_text()), "", {})
        b = _flatten(json.loads(new.read_text()), "", {})
        lines = []
        for k in sorted(a.keys() | b.keys()):
            x, y = a.get(k), b.get(k)
            if x == y:
                continue
            if isinstance(x, float) and isinstance(y, float):
                lines.append(f"  {new.name} {k}: {x!r} -> {y!r} "
                             f"(relative {_relative(np.array(x), np.array(y)):.3g})")
            else:
                lines.append(f"  {new.name} {k}: {x!r} -> {y!r}")
        return lines
    from conedn.io import read_field_binary

    a, b = read_field_binary(old)[2], read_field_binary(new)[2]
    return [f"  {new.name} values: {_relative(a, b):.3g}"]


def _baseline(rev: str, work: Path) -> dict:
    """Run the cases on the source of git revision ``rev`` in a child
    process; returns its case table, the files under work/out."""
    repo = Path(__file__).resolve().parents[1]
    tree = work / "tree"
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(repo), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    done = subprocess.run([sys.executable, __file__, "--run-into", str(work / "out")],
                          env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def _write(rev: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        new = run_cases(work / "new")
        old = json.loads(MANIFEST.read_text())["cases"] if MANIFEST.exists() else {}
        moved = moved_cases(old, new)
        for line in moved:
            print(line)
        files = [(key, name) for key in sorted(old.keys() & new.keys())
                 for name in _moved_files(old[key], new[key])]
        if files:
            base = _baseline(rev, work / "baseline")
            if moved_cases(old, base):
                print(f"note: {rev} does not reproduce the manifest; "
                      f"changes below are against {rev}")
            for key, name in files:
                config, sub = key.split("/")
                rel = Path(config.replace(" ", "-")) / sub / name
                for line in _file_changes(work / "baseline" / "out" / rel, work / "new" / rel):
                    print(f"{key}:{line}")
        if not moved:
            print("no case moved")
    doc = {"versions": versions(), "seed": SEED, "configs": CONFIGS, "cases": new}
    MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST.name}: {len(new)} cases under Python "
          f"{doc['versions']['python']}, numpy {doc['versions']['numpy']}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", default="HEAD",
                        help="git revision whose source the moved files are compared with")
    parser.add_argument("--run-into", type=Path, default=None,
                        help="only run the cases into this directory and print their table")
    args = parser.parse_args()
    if args.run_into is not None:
        print(json.dumps(run_cases(args.run_into)))
    else:
        _write(args.baseline)
