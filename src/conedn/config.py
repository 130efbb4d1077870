"""Run configuration: strict JSON addressed by dotted key paths.

``{"grid.L": 4.0}`` and ``{"grid": {"L": 4.0}}`` spell the same key and may
be mixed freely; spelling the same leaf twice is an error.  Missing keys
fall back to defaults; unknown keys at any level are hard errors naming the
offending dotted path.  Expression nodes (``cone.eta_tilde``, ``phi``,
``shape.direction``) replace wholesale instead of merging, since a ``kind``
switch changes which parameter names are meaningful.
"""

import json
import math
from dataclasses import dataclass

from .conical import ConeAngle, taylor_angle
from .errors import ConfigurationError, DomainError
from .grid import GridFn, SigmaGrid
from .shape import ShapePerturbation
from .strip import ConeProfile, StripGrid

_EXPRESSION_NODES = {"cone.eta_tilde", "phi", "shape.direction"}

# parameter names each expression kind accepts (beyond "kind")
_EXPR_PARAMS = {
    "gaussian": {"amplitude", "width"},
    "bump": {"amplitude", "width"},
    "mode": {"amplitude", "frequency"},
}

_DEFAULTS = {
    "grid": {"L": 8.0, "n_sigma": 128, "n_y": 64},
    "cone": {
        "theta_star": "auto",
        "eta_tilde": {"kind": "gaussian", "amplitude": 0.1, "width": 1.5},
    },
    "phi": {"kind": "gaussian", "amplitude": 1.0, "width": 1.8},
    "shape": {
        "direction": {"kind": "gaussian", "amplitude": 1.0, "width": 2.0},
        "epsilon": 1e-3,
    },
    "physics": {"kappa": 1.0, "rho": 1.0, "epsilon": 1.0, "C": "auto"},
    "tol": {
        "angle": 1e-3,
        "root": 1e-9,
        "plateau": 0.05,
        "bessel": 1e-9,
        "symbol_ratio": 0.02,
        "trace": 1e-9,
        "solve_factor": 0.5,
        "shape": 1e-3,
        "gain": 0.8,
        "stokes": 1e-6,
        "equilibrium": 1e-10,
        "norm_equality": 1e-6,
        "norm_roundtrip": 1e-12,
    },
    "output": {"dir": "out", "plot_script": False},
}


def _graft(dst: dict, key: str, value, dotted: str) -> None:
    if key in dst:
        if isinstance(dst[key], dict) and isinstance(value, dict):
            for k, v in value.items():
                _graft(dst[key], k, v, f"{dotted}.{k}")
            return
        raise ConfigurationError(f"config key given twice: {dotted}")
    dst[key] = value


def _expand_dots(obj, prefix: str = ""):
    """Rewrite dotted keys as nesting so both spellings land in one tree."""
    if not isinstance(obj, dict):
        return obj
    tree: dict = {}
    for key, raw in obj.items():
        dotted = f"{prefix}{key}"
        parts = key.split(".")
        if "" in parts:
            raise ConfigurationError(f"malformed config key: {dotted!r}")
        value = _expand_dots(raw, f"{dotted}.")
        node = tree
        for depth, part in enumerate(parts[:-1]):
            sub = node.setdefault(part, {})
            if not isinstance(sub, dict):
                clash = f"{prefix}{'.'.join(parts[:depth + 1])}"
                raise ConfigurationError(f"config key given twice: {clash}")
            node = sub
        _graft(node, parts[-1], value, dotted)
    return tree


def _merge(defaults: dict, user: dict, prefix: str) -> dict:
    out = {}
    for key, dval in defaults.items():
        path = f"{prefix}{key}"
        if key not in user:
            out[key] = dval
        elif path in _EXPRESSION_NODES:
            out[key] = user[key]
        elif isinstance(dval, dict):
            uval = user[key]
            if not isinstance(uval, dict):
                raise ConfigurationError(f"config key {path} must be an object")
            out[key] = _merge(dval, uval, f"{path}.")
        else:
            out[key] = user[key]
    for key in user:
        if key not in defaults:
            raise ConfigurationError(f"unknown config key: {prefix}{key}")
    return out


def _require_real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"config key {path} must be a number")
    if not math.isfinite(value):
        raise ConfigurationError(f"config key {path} must be finite")
    return float(value)


def _require_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"config key {path} must be an integer")
    return value


def _validate_expression(spec, path: str) -> None:
    if not isinstance(spec, dict):
        raise ConfigurationError(f"config key {path} must be an object")
    kind = spec.get("kind")
    if kind not in _EXPR_PARAMS:
        raise ConfigurationError(
            f"config key {path}.kind must be one of "
            f"{sorted(_EXPR_PARAMS)}, got {kind!r}")
    allowed = _EXPR_PARAMS[kind]
    for key in spec:
        if key != "kind" and key not in allowed:
            raise ConfigurationError(f"unknown config key: {path}.{key}")
    for key in allowed:
        if key not in spec:
            raise ConfigurationError(
                f"config key {path}.{key} is required for kind {kind!r}")
    _require_real(spec["amplitude"], f"{path}.amplitude")
    if "width" in allowed:
        if _require_real(spec["width"], f"{path}.width") <= 0:
            raise ConfigurationError(f"config key {path}.width must be positive")
    else:
        _require_int(spec["frequency"], f"{path}.frequency")


def _validate(cfg: dict) -> None:
    # value ranges of the grid keys are checked by the grid types themselves
    _require_real(cfg["grid"]["L"], "grid.L")
    for key in ("n_sigma", "n_y"):
        _require_int(cfg["grid"][key], f"grid.{key}")

    theta = cfg["cone"]["theta_star"]
    if theta != "auto":
        theta = _require_real(theta, "cone.theta_star")
        if not 0.0 < theta < math.pi:
            raise ConfigurationError(
                "config key cone.theta_star must lie in (0, pi) or be \"auto\"")
    _validate_expression(cfg["cone"]["eta_tilde"], "cone.eta_tilde")
    _validate_expression(cfg["phi"], "phi")
    _validate_expression(cfg["shape"]["direction"], "shape.direction")
    if _require_real(cfg["shape"]["epsilon"], "shape.epsilon") <= 0:
        raise ConfigurationError("config key shape.epsilon must be positive")

    for key in ("kappa", "rho", "epsilon"):
        if _require_real(cfg["physics"][key], f"physics.{key}") <= 0:
            raise ConfigurationError(f"config key physics.{key} must be positive")
    c = cfg["physics"]["C"]
    if c != "auto" and _require_real(c, "physics.C") == 0:
        raise ConfigurationError(
            "config key physics.C must be nonzero or \"auto\"")

    for key, val in cfg["tol"].items():
        if _require_real(val, f"tol.{key}") <= 0:
            raise ConfigurationError(f"config key tol.{key} must be positive")

    if not isinstance(cfg["output"]["dir"], str):
        raise ConfigurationError("config key output.dir must be a string")
    if not isinstance(cfg["output"]["plot_script"], bool):
        raise ConfigurationError("config key output.plot_script must be a boolean")


def build_perturbation(grid: SigmaGrid, spec: dict) -> ShapePerturbation:
    """Realize an expression spec on the grid."""
    kind = spec["kind"]
    if kind == "gaussian":
        return ShapePerturbation.gaussian(grid, spec["amplitude"], spec["width"])
    if kind == "bump":
        return ShapePerturbation.bump(grid, spec["amplitude"], spec["width"])
    return ShapePerturbation.mode(grid, spec["amplitude"], spec["frequency"])


def build_expression(grid: SigmaGrid, spec: dict) -> GridFn:
    return build_perturbation(grid, spec).h


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully merged configuration."""

    raw: dict
    path: str | None = None

    def sigma_grid(self) -> SigmaGrid:
        return SigmaGrid(L=self.raw["grid"]["L"],
                         n_sigma=self.raw["grid"]["n_sigma"])

    def strip_grid(self) -> StripGrid:
        return StripGrid(sigma=self.sigma_grid(), n_y=self.raw["grid"]["n_y"])

    def cone_angle(self) -> ConeAngle:
        theta = self.raw["cone"]["theta_star"]
        if theta == "auto":
            return taylor_angle()
        return ConeAngle(theta)

    def profile(self) -> ConeProfile:
        grid = self.sigma_grid()
        tilde = build_expression(grid, self.raw["cone"]["eta_tilde"])
        return ConeProfile(theta_star=self.cone_angle(), eta_tilde=tilde)

    def phi(self) -> GridFn:
        return build_expression(self.sigma_grid(), self.raw["phi"])

    def direction(self) -> ShapePerturbation:
        return build_perturbation(self.sigma_grid(),
                                  self.raw["shape"]["direction"])

    def tol(self, name: str) -> float:
        return self.raw["tol"][name]


def load_config(path: str | None = None) -> RunConfig:
    """Parse and validate a config file; ``None`` yields pure defaults."""
    if path is None:
        data: dict = {}
    else:
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file: {exc}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: top level must be an object")
    merged = _merge(_DEFAULTS, _expand_dots(data), "")
    _validate(merged)
    cfg = RunConfig(raw=merged, path=path)
    try:
        cfg.strip_grid()
    except DomainError as exc:
        raise ConfigurationError(str(exc)) from exc
    return cfg
