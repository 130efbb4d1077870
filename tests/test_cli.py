"""Config loading, artifact serialization, and the verification commands."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conedn
import conedn.checks as checks_module
import conedn.cli as cli_module
import conedn.flat as flat_module
import conedn.physics as physics_module
from conedn import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    GridFn,
    SigmaGrid,
    StripGrid,
    StripField,
    dn_flat,
    build_symbol_table,
    l2_norm,
    taylor_angle,
)
from conedn.cli import main
from conedn.config import load_config
from conedn.conical import ConeAngle
from conedn.flat import verify_kernel_bounds
from conedn.io import (config_hash, read_field_binary, write_csv, write_field_binary,
                       write_summary)


def run_cli(tmp_path, subcommand, config=None, extra=()):
    """Invoke the entry point in-process; returns (exit code, out dir)."""
    out = tmp_path / "out"
    argv = [subcommand, "--out", str(out)]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    argv += list(extra)
    return main(argv), out


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg.raw["grid"]["n_sigma"] == 128
        assert cfg.raw["cone"]["theta_star"] == "auto"
        assert "tol" not in cfg.raw

    def test_unknown_key_rejected_with_dotted_path(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"grid": {"L": 8.0, "n_sgima": 64}}')
        with pytest.raises(ConfigurationError, match="grid.n_sgima"):
            load_config(str(path))

    def test_dotted_spelling_equivalent_to_nesting(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"grid.n_sigma": 256, "grid": {"L": 4.0}}')
        cfg = load_config(str(path))
        assert cfg.raw["grid"]["n_sigma"] == 256
        assert cfg.raw["grid"]["L"] == 4.0
        assert cfg.raw["grid"]["n_y"] == 64

    def test_dotted_expression_node(self, tmp_path):
        path = tmp_path / "c.json"
        mode = {"kind": "mode", "amplitude": 1.0, "frequency": 3}
        for text, node, expected in [
            ('{"cone.eta_tilde": {"kind": "mode", "amplitude": 0.05, "frequency": 3}}',
             ("cone", "eta_tilde"), {"kind": "mode", "amplitude": 0.05, "frequency": 3}),
            ('{"phi.kind": "mode", "phi.amplitude": 1.0, "phi.frequency": 3}',
             ("phi",), mode),
            ('{"phi": {"kind": "mode", "amplitude": 1.0}, "phi.frequency": 3}',
             ("phi",), mode),
            ('{"cone": {"eta_tilde.kind": "bump", "eta_tilde.amplitude": 0.05,'
             ' "eta_tilde.width": 2.0}}',
             ("cone", "eta_tilde"), {"kind": "bump", "amplitude": 0.05, "width": 2.0}),
        ]:
            path.write_text(text)
            got = load_config(str(path)).raw
            for key in node:
                got = got[key]
            assert got == expected, text
        for text, message in [
            ('{"phi": {"kind": "mode", "amplitude": 1.0, "frequency": 3},'
             ' "phi.frequency": 4}', "given twice: phi.frequency"),
            # a node given at all replaces the default node wholesale
            ('{"phi.kind": "mode", "phi.amplitude": 1.0}', "phi.frequency is required"),
        ]:
            path.write_text(text)
            with pytest.raises(ConfigurationError, match=message):
                load_config(str(path))

    def test_leaf_spelled_twice_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"grid.L": 4.0, "grid": {"L": 8.0}}')
        with pytest.raises(ConfigurationError, match="twice: grid.L"):
            load_config(str(path))

    @pytest.mark.parametrize("text, key", [
        ('{"grid": {"L": 4.0}, "grid": {"n_sigma": 256}}', "grid"),
        ('{"grid": {"L": 4.0, "L": 2.0}}', "L"),
    ], ids=["object", "leaf"])
    def test_key_repeated_in_one_object_rejected(self, tmp_path, text, key):
        # json keeps the last value of a repeated key; the config refuses it
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=f"twice in one object: {key}$"):
            load_config(str(path))

    def test_empty_key_segment_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"grid..L": 4.0}')
        with pytest.raises(ConfigurationError, match="malformed"):
            load_config(str(path))

    def test_dotted_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"grid.n_sgima": 64}')
        with pytest.raises(ConfigurationError, match="grid.n_sgima"):
            load_config(str(path))

    @pytest.mark.parametrize("text", ['{"tol": {"plateau": 10.0}}', '{"tol.gain": 0.5}'],
                             ids=["nested", "dotted"])
    def test_tol_block_is_unknown_key(self, tmp_path, text):
        # pass thresholds are constants of the package, not config
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="unknown config key: tol$"):
            load_config(str(path))

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"grid": {"L": 8.0,}}')
        with pytest.raises(ConfigurationError, match=r":1:20"):
            load_config(str(path))

    def test_expression_node_replaces_instead_of_merging(self, tmp_path):
        # switching kind must not demand the old kind's parameters
        path = tmp_path / "c.json"
        path.write_text(
            '{"phi": {"kind": "mode", "amplitude": 1.0, "frequency": 3}}')
        cfg = load_config(str(path))
        assert "width" not in cfg.raw["phi"]
        vals = cfg.phi().values
        assert abs(vals[vals.size // 2] - 1.0) < 1e-12

    def test_expression_rejects_wrong_parameter(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            '{"phi": {"kind": "mode", "amplitude": 1.0, "width": 2.0}}')
        with pytest.raises(ConfigurationError, match="phi.width"):
            load_config(str(path))

    def test_expression_requires_parameters(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"phi": {"kind": "gaussian", "amplitude": 1.0}}')
        with pytest.raises(ConfigurationError, match="phi.width"):
            load_config(str(path))

    def test_theta_star_range_checked(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"cone": {"theta_star": 4.0}}')
        with pytest.raises(ConfigurationError, match="theta_star"):
            load_config(str(path))

    def test_auto_angle_resolves_to_root(self):
        cfg = load_config(None)
        assert cfg.cone_angle().theta_star == taylor_angle().theta_star

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('[1, 2]')
        with pytest.raises(ConfigurationError, match="top level"):
            load_config(str(path))


_NUMERIC_LEAVES = ("grid.L", "grid.n_sigma", "grid.n_y", "cone.theta_star",
                   "shape.epsilon", "physics.kappa", "physics.rho",
                   "physics.epsilon", "physics.C")
_EXPRESSION_NODES = ("cone.eta_tilde", "phi", "shape.direction")
_NODE_DEFAULTS = ({"kind": "gaussian", "amplitude": 1.0, "width": 1.5},
                  {"kind": "mode", "amplitude": 1.0, "frequency": 3})
_LEAF_VALUES = st.one_of(
    st.integers(-10**400, 10**400), st.sampled_from([10**400, -10**400, 2**62]),
    st.floats(), st.booleans(), st.text("auto8.e-", max_size=4), st.none(),
    st.lists(st.integers(), max_size=2))


@st.composite
def _one_leaf_replaced(draw):
    """The default config with one numeric leaf replaced; an expression node
    is written whole, since a node replaces instead of merging."""
    value = draw(_LEAF_VALUES)
    if draw(st.booleans()):
        return {draw(st.sampled_from(_NUMERIC_LEAVES)): value}
    node = dict(draw(st.sampled_from(_NODE_DEFAULTS)))
    node[draw(st.sampled_from(sorted(set(node) - {"kind"})))] = value
    return {draw(st.sampled_from(_EXPRESSION_NODES)): node}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "c.json"


@settings(max_examples=100, deadline=None)
@given(config=_one_leaf_replaced())
def test_loader_raises_only_configuration_error(config_path, config):
    # json.dumps writes NaN and Infinity, which the loader reads
    config_path.write_text(json.dumps(config))
    try:
        load_config(str(config_path))
    except ConfigurationError:
        pass


class TestArtifacts:
    def test_csv_formatting_is_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [("x", [1.0, 0.1]), ("y", [2.0, -3.5])])
        text = path.read_text()
        assert text == "x,y\n1,2\n0.10000000000000001,-3.5\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_csv_refuses_non_finite_cell(self, tmp_path, bad):
        path = tmp_path / "t.csv"
        with pytest.raises(EvaluationError, match="column y holds a non-finite"):
            write_csv(path, [("x", [1.0, 2.0]), ("y", [0.5, bad])])
        assert not path.exists()

    def test_csv_refuses_ragged_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(DomainError, match=r"column y has shape \(3,\), want \(2,\)"):
            write_csv(path, [("x", [1.0, 2.0]), ("y", [0.5, 1.0, 1.5])])
        assert not path.exists()

    def test_csv_streams_its_rows(self, tmp_path):
        # each row goes to the file as it is formatted: joined into one text,
        # these 100 000 rows held 22.7 MiB at once
        rng = np.random.default_rng(11)
        columns = [(name, rng.normal(size=100_000)) for name in ("a", "b", "c")]
        path = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            write_csv(path, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        rows = [",".join("%.17g" % col[i] for _, col in columns) for i in range(100_000)]
        assert path.read_bytes() == ("\n".join(["a,b,c"] + rows) + "\n").encode("ascii")
        columns[2][1][-1] = math.nan
        with pytest.raises(EvaluationError, match="column c holds a non-finite"):
            write_csv(tmp_path / "u.csv", columns)
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_summary_refuses_non_finite_metric(self, tmp_path, bad):
        # io owns the rule for summaries as for CSV cells: nothing is opened
        path = tmp_path / "s.json"
        with pytest.raises(EvaluationError, match=r"metric sup\[1\] is not finite"):
            write_summary(path, "bounds", True, {"sup": [0.5, bad]}, "h")
        with pytest.raises(EvaluationError, match=r"metric slopes\.q is not finite"):
            write_summary(path, "bounds", True, {"slopes": {"q": bad}}, "h")
        assert not path.exists()
        write_summary(path, "bounds", False, {"gap": None, "error": "text"}, "h")
        assert json.loads(path.read_text())["metrics"] == {"error": "text", "gap": None}

    def test_config_hash_depends_on_seed(self):
        cfg = load_config(None)
        h0 = config_hash(cfg.raw, 0)
        h1 = config_hash(cfg.raw, 1)
        assert h0 != h1 and len(h0) == 64
        assert h0 == config_hash(cfg.raw, 0)

    @pytest.mark.parametrize("config", [None, {"cone": {"theta_star": 2.8}}],
                             ids=["default", "theta 2.8"])
    def test_config_hash_is_sha256_of_the_canonical_json(self, tmp_path, config):
        path = None
        if config is not None:
            path = str(tmp_path / "cfg.json")
            Path(path).write_text(json.dumps(config))
        raw = load_config(path).raw
        canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        want = hashlib.sha256(f"{canon}|seed=7".encode("ascii")).hexdigest()
        assert config_hash(raw, 7) == want

    def test_ten_subcommands_load_no_openssl(self, tmp_path):
        # one fresh interpreter runs every subcommand: config_hash takes
        # CPython's built-in SHA-256, so hashlib and OpenSSL never load
        script = (
            "import sys\n"
            "from conedn.cli import _COMMANDS, main\n"
            "for sub in _COMMANDS:\n"
            f"    assert main([sub, '--out', {str(tmp_path)!r} + '/' + sub]) == 0, sub\n"
            "print(len(_COMMANDS), sorted(m for m in ('hashlib', '_hashlib')\n"
            "                             if m in sys.modules))\n")
        done = subprocess.run([sys.executable, "-c", script], env=_env_with_threads(None),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "10 []"

    def test_field_binary_round_trip(self, tmp_path):
        grid = StripGrid(sigma=SigmaGrid(L=4.0, n_sigma=16), n_y=16)
        rng = np.random.default_rng(3)
        field = StripField(grid.sigma, grid.centers, rng.normal(size=(16, 16)))
        path = tmp_path / "f.cdn1"
        write_field_binary(path, field)
        n_sigma, n_cols, vals = read_field_binary(path)
        assert (n_sigma, n_cols) == (16, 16)
        assert np.array_equal(vals, field.values)

    def test_field_binary_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "f.cdn1"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(ConfigurationError, match="CDN1"):
            read_field_binary(path)

    def test_field_binary_rejects_short_payload(self, tmp_path):
        grid = StripGrid(sigma=SigmaGrid(L=4.0, n_sigma=16), n_y=16)
        field = StripField(grid.sigma, grid.centers, np.ones((16, 16)))
        path = tmp_path / "f.cdn1"
        write_field_binary(path, field)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigurationError, match="payload"):
            read_field_binary(path)


class TestAngleCommand:
    def test_prints_ratio_and_passes(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "angle")
        assert code == 0
        lines = capsys.readouterr().out
        assert "theta_star/pi = 0.2738" in lines
        doc = json.loads((out / "angle.json").read_text())
        assert doc["pass"] is True
        assert doc["subcommand"] == "angle"
        assert len(doc["config_hash"]) == 64
        assert abs(doc["metrics"]["legendre_at_root"]) <= 1e-9
        assert (out / "angle.csv").exists()

    def test_seed_enters_hash_but_not_artifacts(self, tmp_path, capsys):
        code0, out = run_cli(tmp_path, "angle", extra=["--seed", "0"])
        csv0 = (out / "angle.csv").read_bytes()
        doc0 = json.loads((out / "angle.json").read_text())
        code1, _ = run_cli(tmp_path, "angle", extra=["--seed", "7"])
        doc1 = json.loads((out / "angle.json").read_text())
        assert code0 == code1 == 0
        assert (out / "angle.csv").read_bytes() == csv0
        assert doc0["config_hash"] != doc1["config_hash"]

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "angle", extra=["--seed", "-1"])
        assert code == 2

    def test_leaves_scipy_optimize_unimported(self, tmp_path):
        # `python -m conedn.cli angle`, then a look at what it imported
        src = str(Path(conedn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = (
            "import runpy, sys\n"
            f"sys.argv = ['conedn', 'angle', '--out', {str(tmp_path / 'out')!r}]\n"
            "try:\n"
            "    runpy.run_module('conedn.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print('scipy.optimize' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-2:] == ["angle: PASS", "False"]

    def test_loads_no_scipy(self, tmp_path):
        # a bare `import conedn`, then `python -m conedn.cli angle`: the
        # runtime needs numpy alone
        src = str(Path(conedn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = (
            "import runpy, sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m == 'scipy' or m.startswith('scipy.'))\n"
            "import conedn\n"
            "print(scipy_modules())\n"
            f"sys.argv = ['conedn', 'angle', '--out', {str(tmp_path / 'out')!r}]\n"
            "try:\n"
            "    runpy.run_module('conedn.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(scipy_modules())\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "[]"
        assert lines[-2:] == ["angle: PASS", "[]"]

    def test_import_loads_neither_openssl_nor_polynomial(self):
        # hashlib (OpenSSL) and numpy.polynomial load where a route uses
        # them, not with the package; the digest of the default config at
        # seed 0 is the one the module-level import gave
        src = str(Path(conedn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = (
            "import sys\n"
            "import conedn\n"
            "print(sorted(m for m in ('hashlib', '_hashlib', 'numpy.polynomial')\n"
            "             if m in sys.modules))\n"
            "print(conedn.config_hash(conedn.load_config(None).raw, 0))\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "[]", "9ac27a32c73c2d2770ea2a1c65048e6a40647ab6477378468fa5325b768c8a2d"]


def _env_with_threads(threads):
    """The environment of a fresh process that imports conedn from this
    checkout, with OPENBLAS_NUM_THREADS set to ``threads`` and the other
    two BLAS thread variables unset (all three unset for None)."""
    src = str(Path(conedn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for var in cli_module.BLAS_THREAD_VARS:
        env.pop(var, None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _openblas_threads(n: int) -> int:
    """Threads of a process whose OpenBLAS was asked for ``n``: OpenBLAS
    starts its pool when numpy loads, capped at the usable cores."""
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count threads in")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    return min(n, len(os.sched_getaffinity(0)))


class TestBlasThreadDefault:
    """A CLI process runs BLAS on one thread unless its caller set a count;
    importing the library sets nothing.  Each case runs in a fresh process,
    since BLAS reads its thread count when numpy loads."""

    def test_library_import_leaves_environment_alone(self):
        script = (
            "import os, sys\n"
            "before = dict(os.environ)\n"
            "import conedn\n"
            "print('numpy' in sys.modules, dict(os.environ) == before)\n"
            "import conedn.strip\n"
            "print('numpy' in sys.modules, dict(os.environ) == before)\n"
            "print(len(conedn.__all__), all(hasattr(conedn, n) for n in conedn.__all__))\n")
        done = subprocess.run([sys.executable, "-c", script], env=_env_with_threads(None),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["False True", "True True", "53 True"]

    @pytest.mark.parametrize("entry", ["runpy", "main"])
    @pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "2"])
    def test_cli_process_threads(self, tmp_path, entry, threads):
        # `python -m conedn.cli` runs the module through runpy; the console
        # script imports conedn.cli and calls main
        tasks = _openblas_threads(int(threads or 1))
        argv = ["angle", "--out", str(tmp_path / "out")]
        run = {"runpy": ("import runpy, sys\n"
                         f"sys.argv = ['conedn', *{argv!r}]\n"
                         "try:\n"
                         "    runpy.run_module('conedn.cli', run_name='__main__')\n"
                         "except SystemExit as exc:\n"
                         "    assert exc.code == 0, exc.code\n"),
               "main": ("import conedn.cli as c\n"
                        f"assert c.main({argv!r}) == 0\n")}[entry]
        script = run + ("import os\n"
                        "print(os.environ['OPENBLAS_NUM_THREADS'],"
                        " len(os.listdir('/proc/self/task')))\n")
        done = subprocess.run([sys.executable, "-c", script], env=_env_with_threads(threads),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-2:] == ["angle: PASS", f"{threads or 1} {tasks}"]


def test_subcommands_leave_numpy_ma_unloaded(tmp_path):
    # importing numpy.ma costs a CLI process about 17 ms and 0.8 MB; numpy
    # loads it lazily, and np.unique without index outputs is one importer
    script = ("import sys\n"
              "import conedn.cli as c\n"
              f"codes = [c.main([name, '--out', {str(tmp_path)!r}]) for name in c._COMMANDS]\n"
              "print(len(codes), set(codes), 'numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], env=_env_with_threads(None),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "10 {0} False"


class TestSolveCommand:
    def test_flat_profile_matches_symbol_route(self, tmp_path, capsys):
        cfg = {"cone": {"eta_tilde":
                        {"kind": "gaussian", "amplitude": 0.0, "width": 1.5}}}
        code, out = run_cli(tmp_path, "solve", config=cfg)
        assert code == 0
        doc = json.loads((out / "solve.json").read_text())
        dy = doc["metrics"]["delta_y"]
        assert doc["metrics"]["flat_gap_rel"] <= 0.5 * dy**2

        # the written CSV itself reproduces the multiplier route
        data = np.genfromtxt(out / "dn.csv", delimiter=",", names=True)
        grid = SigmaGrid(L=8.0, n_sigma=128)
        table = build_symbol_table(grid, taylor_angle())
        phi = GridFn(grid, data["phi"])
        ref = dn_flat(phi, table)
        gap = l2_norm(GridFn(grid, data["g_of_phi"] - ref.values))
        assert gap / l2_norm(phi) <= 0.5 * dy**2

    def test_deterministic_artifacts(self, tmp_path, capsys):
        code0, out = run_cli(tmp_path, "solve")
        first = [(out / n).read_bytes()
                 for n in ("dn.csv", "solve.cdn1", "solve.json")]
        code1, _ = run_cli(tmp_path, "solve")
        second = [(out / n).read_bytes()
                  for n in ("dn.csv", "solve.cdn1", "solve.json")]
        assert code0 == code1 == 0
        assert first == second

    def test_artifacts_identical_across_blas_threads(self, tmp_path):
        # each run in its own process: BLAS reads its thread count at load;
        # None leaves the thread variables unset, the CLI's one-thread default
        outputs = []
        for threads in (None, "1", "2"):
            out = tmp_path / f"threads{threads}"
            env = _env_with_threads(threads)
            done = subprocess.run(
                [sys.executable, "-m", "conedn.cli", "solve", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append([(out / n).read_bytes()
                            for n in ("dn.csv", "solve.cdn1", "solve.json")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_field_dump_has_grid_shape(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "solve")
        assert code == 0
        n_sigma, n_cols, vals = read_field_binary(out / "solve.cdn1")
        assert (n_sigma, n_cols) == (128, 64)
        assert np.all(np.isfinite(vals))


class TestVerificationCommands:
    def test_symbol_table_sorted_and_positive(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "symbol")
        assert code == 0
        data = np.genfromtxt(out / "symbol.csv", delimiter=",", names=True)
        assert np.all(np.diff(data["zeta"]) > 0)
        assert np.all(data["g"] > 0)
        doc = json.loads((out / "symbol.json").read_text())
        assert abs(doc["metrics"]["bessel_ratio_at_100"] - 1.0) <= 0.02

    def test_extend_trace_and_dump(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "extend")
        assert code == 0
        n_sigma, n_cols, _ = read_field_binary(out / "extend.cdn1")
        assert (n_sigma, n_cols) == (128, 32)
        doc = json.loads((out / "extend.json").read_text())
        assert doc["metrics"]["trace_gap"] <= 1e-9

    def test_bounds_report(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "bounds")
        assert code == 0
        header = (out / "bounds.csv").read_text().splitlines()[0]
        assert header == "zeta,S0,S1,S2,S3"
        doc = json.loads((out / "bounds.json").read_text())
        assert doc["metrics"]["bessel_sup"] <= 1.0 + 1e-9
        assert doc["metrics"]["bessel_weighted_sup"] <= 3.0 + 1e-9

    def test_shape_check_passes(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "shape-check")
        assert code == 0
        doc = json.loads((out / "shape-check.json").read_text())
        assert doc["metrics"]["rel_gap"] <= 1e-3

    @pytest.mark.parametrize("theta", [
        0.05 * math.pi, 0.3, 0.5, 0.7, "auto", 1.0, 0.5 * math.pi, 0.85 * math.pi, 3.1, 3.14,
    ], ids=["0.05 pi", "0.3", "0.5", "0.7", "taylor", "1.0", "pi/2", "0.85 pi", "3.1", "3.14"])
    def test_bounds_verdict_is_the_librarys(self, tmp_path, capsys, theta):
        code, out = run_cli(tmp_path, "bounds",
                            config={"cone": {"theta_star": theta}})
        angle = taylor_angle() if theta == "auto" else ConeAngle(theta)
        table = build_symbol_table(SigmaGrid(L=8.0, n_sigma=128), angle)
        report = verify_kernel_bounds(table)
        # the lattice reaches zeta theta* = X_MAX at every angle, where the
        # plateau holds
        assert report.passed
        doc = json.loads((out / "bounds.json").read_text())
        assert doc["pass"] is True and code == 0
        assert doc["metrics"]["plateau_spread"] == list(report.plateau_spread)
        assert doc["metrics"]["zeta_max"] == report.zeta[-1] == flat_module.X_MAX / angle.theta_star

    def test_bounds_exit_code_follows_the_plateau_verdict(self, tmp_path, capsys, monkeypatch):
        table = build_symbol_table(SigmaGrid(L=8.0, n_sigma=128), taylor_angle())
        spread = max(verify_kernel_bounds(table).plateau_spread)
        monkeypatch.setattr(flat_module, "PLATEAU_SPREAD_MAX", spread / 2.0)
        code, out = run_cli(tmp_path, "bounds")
        assert json.loads((out / "bounds.json").read_text())["pass"] is False
        assert code == 1

    def test_near_pi_angle_reaches_the_verdicts(self, tmp_path, capsys):
        # at theta* = 3.14 on a flat profile the kernel quadrature converges:
        # extend and bounds pass, symbol computes g and fails only its
        # Bessel cross-check, and stokes stops in its own series
        flat = {"kind": "gaussian", "amplitude": 0.0, "width": 1.5}
        config = {"cone": {"theta_star": 3.14, "eta_tilde": flat}}
        for subcommand in ("extend", "bounds"):
            code, out = run_cli(tmp_path, subcommand, config=config)
            assert code == 0, capsys.readouterr().err
            assert capsys.readouterr().out.splitlines()[-1] == f"{subcommand}: PASS"
        code, out = run_cli(tmp_path, "symbol", config=config)
        assert code == 1
        assert capsys.readouterr().err == ""
        metrics = json.loads((out / "symbol.json").read_text())["metrics"]
        assert "error" not in metrics
        assert metrics["g_min"] > 0.0 and metrics["even_gap"] == 0.0
        assert abs(metrics["bessel_ratio_at_100"] - 1.0) > 0.02
        code, out = run_cli(tmp_path, "stokes", config=config)
        assert code == 1
        assert "Legendre series did not converge" in capsys.readouterr().err

    def test_cancel_check_reports_gain(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "cancel-check")
        assert code == 0
        doc = json.loads((out / "cancel-check.json").read_text())
        assert doc["metrics"]["gain"] >= 0.8
        assert set(doc["metrics"]) == {"slopes", "gain", "pass"}
        assert doc["pass"] is doc["metrics"]["pass"] is True

    def test_cancel_check_gain_is_scale_free(self, tmp_path, capsys):
        # the tail slopes fit the amplitudes of each field scaled to
        # max|f| ~ 1, so data at 1e-300 reads the gain of data at 1
        gains = []
        for i, amplitude in enumerate((1.0, 1e-300)):
            (tmp_path / str(i)).mkdir()
            code, out = run_cli(tmp_path / str(i), "cancel-check", config={
                "phi": {"kind": "gaussian", "amplitude": amplitude, "width": 1.8}})
            assert code == 0, capsys.readouterr().err
            gains.append(json.loads((out / "cancel-check.json").read_text())["metrics"]["gain"])
        assert abs(gains[1] - gains[0]) < 1e-3

    def test_stokes_consistency(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "stokes")
        assert code == 0
        doc = json.loads((out / "stokes.json").read_text())
        assert doc["metrics"]["ratio_gap"] <= 1e-12
        assert doc["metrics"]["third_order_gap"] <= 1e-12
        header = (out / "stokes.csv").read_text().splitlines()[0]
        assert header == "m,a0,a1,a2,a3"

    def test_stokes_sums_the_series_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        series = checks_module.legendre_dtheta

        def counted(*args):
            calls.append(args)
            return series(*args)

        monkeypatch.setattr(checks_module, "legendre_dtheta", counted)
        code, _ = run_cli(tmp_path, "stokes")
        assert code == 0
        assert len(calls) == 1

    def test_norms_checks(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "norms")
        assert code == 0
        doc = json.loads((out / "norms.json").read_text())
        assert doc["metrics"]["pullback_equality_gap"] <= 1e-6
        assert doc["metrics"]["roundtrip_gap"] <= 1e-12
        assert doc["metrics"]["coercivity_floor"] > 0

    @pytest.mark.parametrize("amplitude", [1e-170, 1e200])
    @pytest.mark.parametrize("subcommand",
                             ["extend", "solve", "norms", "shape-check", "cancel-check"])
    def test_data_amplitude_keeps_the_verdict(self, tmp_path, capsys, subcommand, amplitude):
        # squared sums of data this small or large leave the float range
        # unless the solve and the norms scale them first
        code, out = run_cli(tmp_path, subcommand, config={
            "phi": {"kind": "gaussian", "amplitude": amplitude, "width": 1.8}})
        assert code == 0, capsys.readouterr().err
        assert json.loads((out / f"{subcommand}.json").read_text())["pass"] is True

    @pytest.mark.parametrize("amplitude", [1e-300, 1e300, 1e307, 1e308, 1.7e308])
    @pytest.mark.parametrize("subcommand",
                             ["extend", "solve", "shape-check", "cancel-check", "norms"])
    def test_data_near_the_float_limits_end_without_warning(self, tmp_path, capsys,
                                                            subcommand, amplitude):
        # every transform takes its data scaled by a power of two, so only a
        # result beyond the float range is inf, and io refuses it: at
        # 1.7e308, the H^1 pullback norm of phi (the order-2 and -3 ratios
        # are taken of phi scaled, so they stay finite at 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, subcommand, config={
                "phi": {"kind": "gaussian", "amplitude": amplitude, "width": 1.8}})
        err = capsys.readouterr().err
        doc = json.loads((out / f"{subcommand}.json").read_text())
        if subcommand == "norms" and amplitude >= 1.7e308:
            assert code == 1 and err.startswith("conedn: ")
            assert doc["pass"] is False and list(doc["metrics"]) == ["error"]
        else:
            assert (code, err, doc["pass"]) == (0, "", True)


# the pass clauses of each subcommand's check on the default config
_CLAUSES = {
    "angle": {"theta_over_pi", "legendre_at_root"},
    "symbol": {"g_min", "even_gap", "bessel_ratio_at_100"},
    "extend": {"trace_gap"},
    "solve": set(),
    "bounds": {"kernel_bounds"},
    "shape-check": {"rel_gap"},
    "cancel-check": {"gain"},
    "stokes": {"ratio_gap", "third_order_gap"},
    "equilibrium": {"rhs_psi_rel", "rhs_theta_max"},
    "norms": {"pullback_equality_gap", "roundtrip_gap", "coercivity_floor"},
}


class TestCheckRecords:
    @pytest.mark.parametrize("subcommand", sorted(cli_module._COMMANDS))
    def test_clauses_decide_the_summary(self, tmp_path, capsys, subcommand):
        check = cli_module._COMMANDS[subcommand][0](load_config(None))
        assert set(check.clauses) == _CLAUSES[subcommand]
        code, out = run_cli(tmp_path, subcommand)
        doc = json.loads((out / f"{subcommand}.json").read_text())
        assert doc["pass"] is check.passed
        assert doc["metrics"] == check.metrics
        assert code == (0 if check.passed else 1)

    def test_solve_judges_only_the_exact_cone(self, tmp_path):
        flat = {"kind": "gaussian", "amplitude": 0.0, "width": 1.5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"cone": {"eta_tilde": flat}}))
        check = checks_module.solve(load_config(str(path)))
        assert set(check.clauses) == {"flat_gap_rel"}
        assert check.passed is check.clauses["flat_gap_rel"] is True


class TestEquilibriumCommand:
    def test_auto_constant_balances(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "equilibrium")
        assert code == 0
        header = (out / "physics.csv").read_text().splitlines()[0]
        assert header == "r,Theta,H,E2,rhsTheta,rhsPsi"
        data = np.genfromtxt(out / "physics.csv", delimiter=",", names=True)
        assert np.all(data["rhsTheta"] == 0.0)
        doc = json.loads((out / "equilibrium.json").read_text())
        assert doc["metrics"]["rhs_psi_rel"] <= 1e-10
        assert doc["metrics"]["c_star"] < 0

    def test_two_strip_solves(self, tmp_path, capsys, monkeypatch):
        # the interior solve of rhs_Theta and the exterior one of E2, each
        # once: the CSV's H and E2 columns are the ones rhs_psi was built from
        calls = []
        solve = physics_module.dn_general

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(physics_module, "dn_general", counted)
        code, _ = run_cli(tmp_path, "equilibrium")
        assert code == 0
        assert len(calls) == 2

    def test_wrong_constant_fails_but_reports(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "equilibrium",
                            config={"physics": {"C": 1.0}})
        assert code == 1
        doc = json.loads((out / "equilibrium.json").read_text())
        assert doc["pass"] is False
        assert doc["metrics"]["rhs_psi_rel"] > 1e-10


def _poisoned(values):
    bad = np.array(values, dtype=float)
    bad.flat[1] = math.nan
    return bad


class TestErrorPaths:
    def test_overlarge_perturbation_is_config_rejection(self, tmp_path, capsys):
        cfg = {"cone": {"eta_tilde":
                        {"kind": "gaussian", "amplitude": 2.0, "width": 1.5}}}
        code, _ = run_cli(tmp_path, "shape-check", config=cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "must stay below" in err

    @pytest.mark.parametrize("subcommand", ["solve", "shape-check", "cancel-check", "norms"])
    def test_out_of_range_profile_names_its_keys(self, tmp_path, capsys, subcommand):
        cfg = {"cone": {"eta_tilde":
                        {"kind": "gaussian", "amplitude": 2.0, "width": 1.5}}}
        code, out = run_cli(tmp_path, subcommand, config=cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "config key cone.eta_tilde or cone.theta_star" in err
        assert not (out / f"{subcommand}.json").exists()

    @pytest.mark.parametrize("kind", ["gaussian", "bump"])
    @pytest.mark.parametrize("key, subcommand", [
        *(("phi", name) for name in ("extend", "solve", "shape-check", "cancel-check",
                                     "norms")),
        *(("cone.eta_tilde", name) for name in ("solve", "shape-check", "cancel-check",
                                                "norms")),
    ])
    def test_tiny_width_runs_without_warning(self, tmp_path, capsys, key, subcommand,
                                             kind):
        # s/width overflows to inf off the centre node, where both kinds
        # take their limit value 0
        spec = {"kind": kind, "amplitude": 0.1, "width": 1e-300}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run_cli(tmp_path, subcommand, config={key: spec})
        assert code in {0, 1, 2}

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"grid": {"L": 8.0,}}')
        code = main(["angle", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert ":1:" in capsys.readouterr().err

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff\xfe{}")
        code = main(["angle", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_tol_block_exits_two(self, tmp_path, capsys):
        # a config cannot loosen a verdict: at 0.05 pi the plateau fails
        code, _ = run_cli(tmp_path, "bounds",
                          config={"cone": {"theta_star": 0.05 * math.pi},
                                  "tol": {"plateau": 10.0}})
        assert code == 2
        assert "unknown config key: tol" in capsys.readouterr().err

    @pytest.mark.parametrize("config, key", [
        ({"grid": 5}, "grid"),
        ({"grid": {"L": 1}, "grid.L.x": 2}, "grid.L"),
        ({"grid.L": "8"}, "grid.L"),
        ({"grid.L": True}, "grid.L"),
        ({"grid.L": math.nan}, "grid.L"),
        ({"grid.L": math.inf}, "grid.L"),
        ({"grid.n_sigma": 128.0}, "grid.n_sigma"),
        ({"phi": 3}, "phi"),
        ({"phi": {"kind": "square"}}, "phi.kind"),
        ({"shape.epsilon": 0}, "shape.epsilon"),
        ({"physics.kappa": -1}, "physics.kappa"),
        ({"physics.C": 0}, "physics.C"),
        ({"output": {"dir": "o"}}, "output"),
        ({"cone.theta_star": "pi"}, "cone.theta_star"),
        ({"grid.n_sigma": 2**62}, "grid.n_sigma"),
        ({"grid.n_y": 2**40}, "grid.n_y"),
        ({"phi": {"kind": "gaussian", "amplitude": 10**400, "width": 1.8}}, "phi.amplitude"),
        ({"phi": {"kind": "mode", "amplitude": 1.0, "frequency": 10**400}}, "phi.frequency"),
        ({"grid.L": 1e-30}, "grid.L"),
        ({"grid": {"L": 1e-100}}, "grid.L"),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
    def test_refused_config_names_its_key(self, tmp_path, capsys, config, key):
        # json.dumps writes nan and inf as the NaN and Infinity that the
        # loader reads; an unknown key reads "unknown config key: <key>"
        code, out = run_cli(tmp_path, "angle", config=config)
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(rf"config key:? .*(?<![\w.]){re.escape(key)}(?![\w.])", err), err
        assert not out.exists()

    def test_tiny_angle_names_the_callers_theta(self, tmp_path, capsys):
        # pi - 1e-17 rounds to pi: the message names 1e-17, not the reflection
        code, _ = run_cli(tmp_path, "equilibrium", config={"cone": {"theta_star": 1e-17}})
        assert code == 2
        err = capsys.readouterr().err
        assert "1e-17" in err
        assert "rounds to pi" in err

    def test_zero_data_norms_exits_two(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "norms", config={
            "phi": {"kind": "gaussian", "amplitude": 0.0, "width": 1.0}})
        assert code == 2
        assert "config key phi vanishes" in capsys.readouterr().err
        assert not (out / "norms.json").exists()

    def test_zero_data_exact_cone_solve_exits_two(self, tmp_path, capsys):
        zero = {"kind": "gaussian", "amplitude": 0.0, "width": 1.0}
        code, out = run_cli(tmp_path, "solve",
                            config={"phi": zero, "cone": {"eta_tilde": zero}})
        assert code == 2
        assert "config key phi vanishes" in capsys.readouterr().err
        assert not (out / "solve.json").exists()

    @pytest.mark.parametrize("subcommand, key", [
        ("extend", "phi"),
        ("shape-check", "phi"),
        ("shape-check", "shape.direction"),
        ("cancel-check", "phi"),
    ])
    def test_vanishing_data_exits_two(self, tmp_path, capsys, subcommand, key):
        zero = {"kind": "gaussian", "amplitude": 0.0, "width": 2.0}
        code, out = run_cli(tmp_path, subcommand, config={key: zero})
        assert code == 2
        assert f"config key {key} vanishes on the grid" in capsys.readouterr().err
        assert not (out / f"{subcommand}.json").exists()

    def test_direction_lost_to_rounding_fails(self, tmp_path, capsys):
        # epsilon * direction does not move the profile: the central
        # difference is exactly zero, and no relative gap can be formed
        tiny = {"kind": "gaussian", "amplitude": 1e-150, "width": 2.0}
        code, out = run_cli(tmp_path, "shape-check",
                            config={"shape.direction": tiny})
        assert code == 1
        assert "central difference vanishes" in capsys.readouterr().err
        doc = json.loads((out / "shape-check.json").read_text())
        assert doc["pass"] is False

    @pytest.mark.parametrize("config, failure", [
        ({"grid": {"n_sigma": 4096}},
         "up to 804 (pi n_sigma / (2 L), config keys grid.n_sigma and grid.L): Legendre "
         "series overflowed within 384 terms (largest z 0.173885, largest m^2 646814)"),
        ({"cone": {"theta_star": 2.8}},
         "up to 25.1 (pi n_sigma / (2 L), config keys grid.n_sigma and grid.L): Legendre "
         "series did not converge within 400 terms (largest z 0.971111, largest m^2 "
         "631.655)"),
    ], ids=["n_sigma 4096", "theta 2.8"])
    def test_stokes_beyond_the_series_fails_without_warning(self, tmp_path, capsys,
                                                            config, failure):
        # the series overflows at the largest frequency of the first config
        # and needs more than SERIES_MAX_TERMS terms at the second
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "stokes", config=config)
        assert code == 1
        message = (f"graded-expansion coefficients fail on frequencies {failure}; "
                   "stokes_g_ell reads the symbol table at every frequency")
        assert capsys.readouterr().err == f"conedn: {message}\n"
        doc = json.loads((out / "stokes.json").read_text())
        assert doc["pass"] is False
        assert doc["metrics"] == {"error": message}

    @pytest.mark.parametrize("subcommand, config, message", [
        ("equilibrium", {"grid": {"L": 300}},
         "grid.L = 300 exceeds 2 ln(DBL_MAX)/5 = 283.9"),
        ("norms", {"phi": {"kind": "gaussian", "amplitude": 1.7e308, "width": 1.8}},
         "column pullback_lhs holds a non-finite value"),
    ], ids=["equilibrium L 300", "norms phi 1.7e308"])
    def test_non_finite_values_reach_no_artifact(self, tmp_path, capsys, subcommand,
                                                 config, message):
        # dn_physical's e^{5 sigma/2} would overflow beyond sigma = 283.9, so it
        # refuses such a grid.L; the H^1 norm of phi (about 1.7 times its
        # amplitude) exceeds the float range at 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out = run_cli(tmp_path, subcommand, config=config)
        assert code == 1
        assert message in capsys.readouterr().err
        doc = json.loads((out / f"{subcommand}.json").read_text())
        assert doc["pass"] is False
        assert list(doc["metrics"]) == ["error"]
        for path in out.iterdir():
            text = path.read_text()
            for token in ("NaN", "Infinity", "inf"):
                assert token not in text, (path.name, token)

    def test_non_finite_metric_fails_with_error_summary(self, tmp_path, capsys,
                                                        monkeypatch):
        # None, a check not run, and the finite nested values pass
        def command(cfg):
            return checks_module.Check({}, {}, {"flat_gap_rel": None, "slopes": {"q": 1.0},
                                                "sup": [0.5, math.nan]}, {})

        monkeypatch.setitem(cli_module._COMMANDS, "angle", (command, "stub"))
        code, out = run_cli(tmp_path, "angle")
        assert code == 1
        assert "metric sup[1] is not finite" in capsys.readouterr().err
        doc = json.loads((out / "angle.json").read_text())
        assert doc["pass"] is False
        assert list(doc["metrics"]) == ["error"]

    @pytest.mark.parametrize("subcommand, target, poison", [
        ("symbol", "build_symbol_table",
         lambda table: dataclasses.replace(table, g=_poisoned(table.g))),
        ("extend", "extend_flat",
         lambda field: StripField(field.sigma, field.ys, _poisoned(field.values))),
        ("solve", "dn_general",
         lambda res: dataclasses.replace(res, g_of_phi=GridFn(
             res.g_of_phi.grid, _poisoned(res.g_of_phi.values)))),
        ("stokes", "legendre_dtheta",
         lambda rows: np.vstack([rows[:3], _poisoned(rows[3])])),
    ], ids=["symbol g", "extend field", "solve g_of_phi", "stokes a3"])
    def test_non_finite_result_fails_with_error_summary(self, tmp_path, capsys, monkeypatch,
                                                        subcommand, target, poison):
        # no clause judges finiteness: io refuses the CSV cell first
        compute = getattr(checks_module, target)
        monkeypatch.setattr(checks_module, target, lambda *args: poison(compute(*args)))
        code, out = run_cli(tmp_path, subcommand)
        assert code == 1
        assert "holds a non-finite value" in capsys.readouterr().err
        doc = json.loads((out / f"{subcommand}.json").read_text())
        assert doc["pass"] is False
        assert list(doc["metrics"]) == ["error"]

    @pytest.mark.parametrize("subcommand, config, code, message", [
        ("equilibrium", {"physics": {"kappa": 1e-300, "rho": 1e300}}, 1,
         "the pressure scale (kappa/rho) max|H| is 0"),
        ("equilibrium", {"grid": {"L": 300}}, 1,
         "grid.L = 300 exceeds 2 ln(DBL_MAX)/5 = 283.9"),
        ("equilibrium", {"grid": {"L": 1e6}}, 1,
         "grid.L = 1e+06 exceeds 2 ln(DBL_MAX)/5 = 283.9"),
        ("equilibrium", {"physics": {"kappa": 1e300, "rho": 1e-300}}, 1,
         "rhs_psi leaves the float range at kappa = 1e+300, rho = 1e-300, epsilon = 1"),
        ("equilibrium", {"physics": {"C": 1e300}}, 1,
         "the squared field E2 leaves the float range at C = 1e+300"),
        ("equilibrium", {"physics": {"C": 1e308}}, 1,
         "the exterior datum xi leaves the float range at C = 1e+308"),
        ("norms", {"physics": {"kappa": 1e-300, "rho": 1e300}}, 0, None),
        ("norms", {"grid": {"L": 300}}, 0, None),
        ("norms", {"grid": {"L": 1e6}}, 1,
         "grid.L = 1e+06 exceeds 2 ln(DBL_MAX) = 1419.6"),
    ], ids=["equilibrium kappa/rho underflow", "equilibrium L 300", "equilibrium L 1e6",
            "equilibrium kappa/rho overflow", "equilibrium C 1e300", "equilibrium C 1e308",
            "norms kappa/rho underflow", "norms L 300", "norms L 1e6"])
    def test_physics_edges_end_without_traceback(self, tmp_path, capsys, subcommand,
                                                 config, code, message):
        # every accepted config runs or is refused with a message: nothing
        # warns, and nothing but an exit code leaves main
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out = run_cli(tmp_path, subcommand, config=config)
        assert got == code
        doc = json.loads((out / f"{subcommand}.json").read_text())
        if code == 0:
            assert doc["pass"] is True
            return
        err = capsys.readouterr().err
        assert err.startswith("conedn: ") and message in err
        assert doc["pass"] is False
        assert list(doc["metrics"]) == ["error"]

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below a file"])
    def test_output_directory_on_a_file_exits_two(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("")
        target = str(taken / "out" if below else taken)
        assert main(["angle", "--out", target]) == 2
        assert f"cannot create output directory {target}" in capsys.readouterr().err

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"grid": {"n_sgima": 64}}')
        code = main(["angle", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "grid.n_sgima" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", [
        ({"n_sigma": 12}, "n_sigma must be a power of two >= 8, got 12"),
        ({"n_y": 4}, "n_y must be at least 16, got 4"),
    ])
    def test_grid_size_rejected_before_output(self, tmp_path, capsys, grid, message):
        code, out = run_cli(tmp_path, "solve", config={"grid": grid})
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", sorted(cli_module._COMMANDS))
    def test_grid_spacing_overflow_exits_two(self, tmp_path, capsys, subcommand):
        # at L = 1e308 the spacing 2L/n_sigma is inf and every node NaN
        code, out = run_cli(tmp_path, subcommand, config={"grid": {"L": 1e308}})
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(r"config key .*(?<![\w.])grid\.L(?![\w.])", err), err
        assert "2L/n_sigma" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", sorted(cli_module._COMMANDS))
    def test_frequency_beyond_the_quadrature_exits_two(self, tmp_path, capsys, subcommand):
        # at L = 1e-30 the top frequency pi n_sigma/(2L) is 2.0e32, past the
        # kernel quadrature's reach
        code, out = run_cli(tmp_path, subcommand, config={"grid": {"L": 1e-30}})
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(r"config key .*(?<![\w.])grid\.L(?![\w.])", err), err
        assert "top frequency" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["symbol", "extend", "bounds"])
    def test_frequency_within_the_quadrature_runs(self, tmp_path, capsys, subcommand):
        # at L = 1e-20 the top frequency is 2.0e22, pi times it 6.3e22
        code, _ = run_cli(tmp_path, subcommand, config={"grid": {"L": 1e-20}})
        assert code == 0
