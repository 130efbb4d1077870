"""Config loading, artifact serialization, and the verification commands."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conedn
from conedn import (
    ConfigurationError,
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
from conedn.io import config_hash, read_field_binary, write_csv, write_field_binary


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
        assert cfg.tol("gain") == 0.8

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
        path.write_text(
            '{"cone.eta_tilde": {"kind": "mode", "amplitude": 0.05,'
            ' "frequency": 3}}')
        cfg = load_config(str(path))
        assert cfg.raw["cone"]["eta_tilde"]["frequency"] == 3

    def test_leaf_spelled_twice_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"grid.L": 4.0, "grid": {"L": 8.0}}')
        with pytest.raises(ConfigurationError, match="twice: grid.L"):
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

    def test_unknown_tolerance_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"tol": {"gian": 0.5}}')
        with pytest.raises(ConfigurationError, match="tol.gian"):
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
        vals = cfg.phi().real_values(tol=1e-12)
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


class TestArtifacts:
    def test_csv_formatting_is_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [("x", [1.0, 0.1]), ("y", [2.0, -3.5])])
        text = path.read_text()
        assert text == "x,y\n1,2\n0.10000000000000001,-3.5\n"

    def test_config_hash_depends_on_seed(self):
        cfg = load_config(None)
        h0 = config_hash(cfg.raw, 0)
        h1 = config_hash(cfg.raw, 1)
        assert h0 != h1 and len(h0) == 64
        assert h0 == config_hash(cfg.raw, 0)

    def test_field_binary_round_trip(self, tmp_path):
        grid = StripGrid(sigma=SigmaGrid(L=4.0, n_sigma=16), n_y=16)
        rng = np.random.default_rng(3)
        field = StripField(grid=grid, values=rng.normal(size=(16, 16)))
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
        field = StripField(grid=grid, values=np.ones((16, 16)))
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
        # each run in its own process: BLAS reads its thread count at load
        src = str(Path(conedn.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run(
                [sys.executable, "-m", "conedn.cli", "solve", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append([(out / n).read_bytes()
                            for n in ("dn.csv", "solve.cdn1", "solve.json")])
        assert outputs[0] == outputs[1]

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

    def test_cancel_check_reports_gain(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "cancel-check")
        assert code == 0
        doc = json.loads((out / "cancel-check.json").read_text())
        assert doc["metrics"]["gain"] >= 0.8
        assert set(doc["metrics"]) == {"slopes", "gain", "pass"}

    def test_stokes_consistency(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "stokes")
        assert code == 0
        doc = json.loads((out / "stokes.json").read_text())
        assert doc["metrics"]["ratio_gap"] <= 1e-12
        assert doc["metrics"]["third_order_gap"] <= 1e-12
        header = (out / "stokes.csv").read_text().splitlines()[0]
        assert header == "m,a0,a1,a2,a3"

    def test_norms_checks(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "norms")
        assert code == 0
        doc = json.loads((out / "norms.json").read_text())
        assert doc["metrics"]["pullback_equality_gap"] <= 1e-6
        assert doc["metrics"]["roundtrip_gap"] <= 1e-12
        assert doc["metrics"]["coercivity_floor"] > 0


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

    def test_wrong_constant_fails_but_reports(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "equilibrium",
                            config={"physics": {"C": 1.0}})
        assert code == 1
        doc = json.loads((out / "equilibrium.json").read_text())
        assert doc["pass"] is False
        assert doc["metrics"]["rhs_psi_rel"] > 1e-10


class TestErrorPaths:
    def test_overlarge_perturbation_is_config_rejection(self, tmp_path, capsys):
        cfg = {"cone": {"eta_tilde":
                        {"kind": "gaussian", "amplitude": 2.0, "width": 1.5}}}
        code, _ = run_cli(tmp_path, "shape-check", config=cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "must stay below" in err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"grid": {"L": 8.0,}}')
        code = main(["angle", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert ":1:" in capsys.readouterr().err

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

    def test_plot_script_emission(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "angle",
                            config={"output": {"plot_script": True}})
        assert code == 0
        assert (out / "plot.py").exists()
