"""Run configuration: strict JSON addressed by dotted key paths.

``{"grid.L": 4.0}`` and ``{"grid": {"L": 4.0}}`` spell the same key and may
be mixed freely; spelling the same leaf twice is an error.  Missing keys
fall back to defaults; unknown keys at any level are hard errors naming the
offending dotted path.  Expression nodes (``cone.eta_tilde``, ``phi``,
``shape.direction``) replace wholesale instead of merging, since a ``kind``
switch changes which parameter names are meaningful.

The expression kinds, one table (``_EXPRESSIONS``) for validation and
realization alike, s = sigma:

    gaussian  amplitude, width      amplitude exp(-(s/width)^2)
    bump      amplitude, width      amplitude exp(1 - 1/(1 - (s/width)^2))
                                    for |s| < width, 0 outside
    mode      amplitude, frequency  amplitude cos(pi frequency s / L)

A width must be positive and a frequency an integer, so a mode stays
grid-periodic.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .conical import ConeAngle, taylor_angle
from .errors import ConfigurationError, DomainError
from .grid import GridFn, SigmaGrid
from .physics import PhysicalParams
from .strip import ConeProfile, StripGrid

__all__ = ["RunConfig", "build_expression", "load_config"]

_EXPRESSION_NODES = {"cone.eta_tilde", "phi", "shape.direction"}


def _gaussian(s, L, amplitude, width):
    return amplitude * np.exp(-((s / width) ** 2))


def _bump(s, L, amplitude, width):
    x = s / width
    inside = np.abs(x) < 1.0
    out = np.zeros_like(s, dtype=float)
    xs = np.clip(x[inside] ** 2, 0.0, 1.0 - 1e-15)
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - xs))
    return out


def _mode(s, L, amplitude, frequency):
    return amplitude * np.cos(math.pi * frequency / L * s)


# each expression kind: its formula f(sigma, L, **params) and the parameter
# names it takes beyond "kind"
_EXPRESSIONS = {
    "gaussian": (_gaussian, ("amplitude", "width")),
    "bump": (_bump, ("amplitude", "width")),
    "mode": (_mode, ("amplitude", "frequency")),
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
}


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: a key repeated within one object is an error, not
    a silent overwrite by the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigurationError(f"config key given twice in one object: {key}")
        obj[key] = value
    return obj


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
    try:
        x = float(value)
    except OverflowError:           # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigurationError(f"config key {path} must be finite")
    return x


def _require_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"config key {path} must be an integer")
    _require_real(value, path)
    return value


def _validate_expression(spec, path: str) -> None:
    if not isinstance(spec, dict):
        raise ConfigurationError(f"config key {path} must be an object")
    kind = spec.get("kind")
    if kind not in _EXPRESSIONS:
        raise ConfigurationError(
            f"config key {path}.kind must be one of "
            f"{sorted(_EXPRESSIONS)}, got {kind!r}")
    allowed = _EXPRESSIONS[kind][1]
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


def build_expression(grid: SigmaGrid, spec: dict) -> GridFn:
    """Realize an expression spec on the grid; a spec that fails the
    config's own check raises ConfigurationError."""
    _validate_expression(spec, "expression")
    formula, params = _EXPRESSIONS[spec["kind"]]
    # at a tiny width s/width overflows to inf, where the gaussian and the
    # bump take their limit value 0
    with np.errstate(over="ignore"):
        values = formula(grid.sigma, grid.L, **{k: spec[k] for k in params})
    return GridFn(grid, values)


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully merged configuration."""

    raw: dict

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
        tilde = build_expression(self.sigma_grid(), self.raw["cone"]["eta_tilde"])
        angle = self.cone_angle()
        try:
            return ConeProfile(theta_star=angle, eta_tilde=tilde)
        except DomainError as exc:
            raise ConfigurationError(
                f"config key cone.eta_tilde or cone.theta_star: {exc}") from exc

    def phi(self) -> GridFn:
        return build_expression(self.sigma_grid(), self.raw["phi"])

    def direction(self) -> GridFn:
        return build_expression(self.sigma_grid(), self.raw["shape"]["direction"])

    def physical_params(self) -> PhysicalParams:
        """The physics constants, C = "auto" resolved to the equilibrium
        field strength C* at the cone angle."""
        phys = self.raw["physics"]
        if phys["C"] == "auto":
            return PhysicalParams.at_equilibrium(phys["kappa"], phys["rho"],
                                                 phys["epsilon"], self.cone_angle())
        return PhysicalParams(**phys)


def load_config(path: str | None = None) -> RunConfig:
    """Parse and validate a config file; ``None`` yields pure defaults."""
    if path is None:
        data: dict = {}
    else:
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}")
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: top level must be an object")
    merged = _merge(_DEFAULTS, _expand_dots(data), "")
    _validate(merged)
    cfg = RunConfig(raw=merged)
    try:
        cfg.strip_grid()
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"config key grid.L, grid.n_sigma or grid.n_y: {exc}") from exc
    return cfg
