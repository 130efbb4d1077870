"""Span recording from outside the library.

Wrappers are installed on the names through which one conedn module calls
another (``conedn.shape.dn_general`` is the solver as ``shape`` sees it);
all are public but the kernel quadrature as ``flat`` binds it.  Library
code is not edited: the benchmark replaces module attributes in its own
process only.

A span is (name, start, end, parent); spans stay in memory and are written
out when the run ends.  A span's self time is its duration minus the time
covered by its children, and its layer is the part of its name before the
first dot.  When every child lies within its parent and no two children
of a span overlap, the self times of all spans under the benchmark's own
operation spans add up to the traced wall time; ``nesting_errors`` checks
that they do.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into the recorder's span list, -1 for a root
    cpu_s: float     # process CPU time inside the span, all threads
    size: int        # work counted at the boundary (unknowns, bytes)


class Recorder:
    """Collects nested spans of one process while ``active`` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               -time.process_time(), 0))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, size: int = 0) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.cpu_s += time.process_time()
        span.size = size
        self._stack.pop()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded by a child process under ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock on
        Linux, so a child's timestamps nest inside the parent's span.
        """
        base = len(self.spans)
        for s in spans:
            s = dict(s)
            s["parent"] = parent if s["parent"] < 0 else base + s["parent"]
            self.spans.append(Span(**s))

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _field_size(args, kwargs, result) -> int:
    """Unknowns of a strip solve: the size of the returned field."""
    return int(getattr(getattr(result, "values", None), "size", 0))


def _file_size(args, kwargs, result) -> int:
    path = args[0] if args else kwargs.get("path")
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


_FLAT = ("build_symbol_table", "dn_flat", "extend_flat", "verify_kernel_bounds")
_IO_WRITERS = ("write_csv", "write_field_binary", "write_summary",
               "write_plot_script")

# (module, attribute, span name, size counter).  A module's own attribute
# is wrapped where the benchmark or a sibling function of that module calls
# through it; the other entries are the names other modules bound at import.
BOUNDARIES: tuple = (
    ("conedn.strip", "solve_strip", "strip.solve_strip", _field_size),
    ("conedn.strip", "assemble_coefficients", "strip.assemble_coefficients", None),
    ("conedn.strip", "cho_factor", "strip.cho", None),
    ("conedn.strip", "cho_solve", "strip.cho", None),
    *((mod, "dn_general", "strip.dn_general", None)
      for mod in ("conedn.strip", "conedn.shape", "conedn.physics", "conedn.cli")),
    ("conedn.physics", "legendre_half", "conical.legendre_half", None),
    # the kernel quadrature as flat binds it: private, but the only way
    # flat reaches conical, and where the exact-cone route spends its time
    ("conedn.flat", "_quad_log_k", "conical.quadrature", None),
    *((mod, "taylor_angle", "conical.taylor_angle", None)
      for mod in ("conedn.conical", "conedn.config", "conedn.cli")),
    *((mod, name, f"flat.{name}", None)
      for mod in ("conedn.flat", "conedn.cli") for name in _FLAT),
    *((mod, name, "grid.transform", None)
      for mod in ("conedn.flat", "conedn.shape")
      for name in ("to_spectrum", "to_gridfn")),
    *((mod, name, f"shape.{name}", None)
      for mod in ("conedn.shape", "conedn.cli")
      for name in ("shape_derivative", "cancellation_quantity")),
    *((mod, name, f"physics.{name}", None)
      for mod in ("conedn.physics", "conedn.cli")
      for name in ("zakharov_rhs", "electric_functional")),
    ("conedn.cli", "load_config", "config.load_config", None),
    *(("conedn.cli", name, "io.write", _file_size) for name in _IO_WRITERS),
)


def _wrap(recorder: Recorder, fn, name: str, size_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        size = 0
        try:
            result = fn(*args, **kwargs)
            if size_of is not None:
                size = size_of(args, kwargs, result)
        finally:
            recorder.close(index, size)
        return result
    return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every boundary that exists and return the ones not found: a
    name that a later version removes shows as zero calls, not an error."""
    missing = []
    for mod_name, attr, span_name, size_of in BOUNDARIES:
        try:
            module = importlib.import_module(mod_name)
        except ModuleNotFoundError:
            missing.append(f"{mod_name}.{attr}")
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            missing.append(f"{mod_name}.{attr}")
            continue
        setattr(module, attr, _wrap(recorder, original, span_name, size_of))
    return missing


CLI_COMMANDS = ("angle", "symbol", "extend", "solve", "bounds", "shape-check",
                "cancel-check", "stokes", "equilibrium", "norms")
# library verdicts the workloads count instead of failing (see workloads.py)
DIAGNOSTICS = ("flat.bounds_plateau_fail.count",)
LAYERS = ("grid", "conical", "flat", "strip", "shape", "physics", "config",
          "io", "cli", "bench")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    return [
        ("strip.solve_strip.self_s", "s"), ("strip.solve_strip.calls", "count"),
        ("strip.unknowns", "count"),
        ("strip.cho.self_s", "s"), ("strip.cho.calls", "count"),
        ("strip.cho.cpu_per_wall", "ratio"),
        ("strip.assemble_coefficients.calls", "count"),
        ("strip.assemble_coefficients.self_s", "s"),
        ("strip.dn_general.self_s", "s"),
        ("shape.shape_derivative.self_s", "s"),
        ("shape.cancellation_quantity.self_s", "s"),
        ("shape.dn_calls_per_op", "count/op"),
        ("physics.zakharov_rhs.self_s", "s"),
        ("physics.electric_functional.self_s", "s"),
        ("physics.legendre_half.calls", "count"),
        ("flat.build_symbol_table.self_s", "s"),
        ("flat.build_symbol_table.calls", "count"),
        ("flat.extend_flat.self_s", "s"),
        ("flat.verify_kernel_bounds.self_s", "s"),
        ("flat.dn_flat.self_s", "s"),
        *((name, "count") for name in DIAGNOSTICS),
        ("grid.transform.calls", "count"), ("grid.transform.self_s", "s"),
        ("conical.quadrature.calls", "count"),
        ("conical.quadrature.self_s", "s"),
        ("conical.taylor_angle.calls", "count"),
        ("conical.taylor_angle.self_s", "s"),
        ("cli.import_s", "s"), ("cli.process_s", "s"),
        *((f"cli.{name}.s", "s") for name in CLI_COMMANDS),
        ("config.load_config.self_s", "s"),
        ("io.write.self_s", "s"), ("io.bytes", "B"),
        *((f"{layer}.self_s", "s") for layer in LAYERS),
        ("trace.wall_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def nesting_errors(spans: list[Span], slack: float = 1e-9) -> list[str]:
    """Spans that break the nesting the self times rely on: a child outside
    its parent's interval, or children that overlap, which shows as a
    negative self time.  Adopted spans of a child process are held to it
    too, so a clock the two processes do not share shows here."""
    errors = [f"span {s.name} [{s.start}, {s.end}] outside its parent "
              f"{spans[s.parent].name} [{spans[s.parent].start}, {spans[s.parent].end}]"
              for s in spans if s.parent >= 0
              and not (spans[s.parent].start - slack <= s.start <= s.end
                       <= spans[s.parent].end + slack)]
    errors += [f"span {s.name} has self time {t:.3e} s" for s, t in
               zip(spans, self_times(spans)) if t < -slack]
    return errors


def layer_metrics(spans: list[Span], n_ops: int,
                  diagnostics: dict[str, int]) -> dict[str, float]:
    """Per-layer values from one traced run.

    Everything is counted under the ``bench.op`` roots (the timed
    operations), except the Taylor angle, which is also counted in set-up.
    """
    n = len(spans)
    dur = [s.end - s.start for s in spans]
    in_op = [False] * n
    for i, s in enumerate(spans):
        in_op[i] = s.name == "bench.op" if s.parent < 0 else in_op[s.parent]
    self_s = self_times(spans)
    in_ops: dict[str, list[int]] = {}
    everywhere: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        everywhere.setdefault(s.name, []).append(i)
        if in_op[i]:
            in_ops.setdefault(s.name, []).append(i)

    def calls(name, where=in_ops):
        return float(len(where.get(name, ())))

    def self_of(name, where=in_ops):
        return float(sum(self_s[i] for i in where.get(name, ())))

    def total_of(name):
        return float(sum(dur[i] for i in in_ops.get(name, ())))

    def size_of(name):
        return float(sum(spans[i].size for i in in_ops.get(name, ())))

    cho = in_ops.get("strip.cho", [])
    cho_wall = sum(dur[i] for i in cho)
    shape_dn = [i for i in in_ops.get("strip.dn_general", ())
                if spans[spans[i].parent].name.startswith("shape.")]
    wall = total_of("bench.op")
    values = {
        "strip.solve_strip.self_s": self_of("strip.solve_strip"),
        "strip.solve_strip.calls": calls("strip.solve_strip"),
        "strip.unknowns": size_of("strip.solve_strip"),
        "strip.cho.self_s": self_of("strip.cho"),
        "strip.cho.calls": float(len(cho)),
        "strip.cho.cpu_per_wall": (sum(spans[i].cpu_s for i in cho) / cho_wall
                                   if cho_wall > 0 else 0.0),
        "strip.assemble_coefficients.calls": calls("strip.assemble_coefficients"),
        "strip.assemble_coefficients.self_s": self_of("strip.assemble_coefficients"),
        "strip.dn_general.self_s": self_of("strip.dn_general"),
        "shape.shape_derivative.self_s": self_of("shape.shape_derivative"),
        "shape.cancellation_quantity.self_s": self_of("shape.cancellation_quantity"),
        "shape.dn_calls_per_op": len(shape_dn) / n_ops,
        "physics.zakharov_rhs.self_s": self_of("physics.zakharov_rhs"),
        "physics.electric_functional.self_s": self_of("physics.electric_functional"),
        "physics.legendre_half.calls": calls("conical.legendre_half"),
        "flat.build_symbol_table.self_s": self_of("flat.build_symbol_table"),
        "flat.build_symbol_table.calls": calls("flat.build_symbol_table"),
        "flat.extend_flat.self_s": self_of("flat.extend_flat"),
        "flat.verify_kernel_bounds.self_s": self_of("flat.verify_kernel_bounds"),
        "flat.dn_flat.self_s": self_of("flat.dn_flat"),
        **{name: float(diagnostics.get(name, 0)) for name in DIAGNOSTICS},
        "grid.transform.calls": calls("grid.transform"),
        "grid.transform.self_s": self_of("grid.transform"),
        "conical.quadrature.calls": calls("conical.quadrature"),
        "conical.quadrature.self_s": self_of("conical.quadrature"),
        "conical.taylor_angle.calls": calls("conical.taylor_angle", everywhere),
        "conical.taylor_angle.self_s": self_of("conical.taylor_angle", everywhere),
        "cli.import_s": total_of("cli.import"),
        "cli.process_s": (total_of("cli.subprocess")
                          - sum(total_of(f"cli.{name}") for name in CLI_COMMANDS)),
        **{f"cli.{name}.s": total_of(f"cli.{name}") for name in CLI_COMMANDS},
        "config.load_config.self_s": self_of("config.load_config"),
        "io.write.self_s": self_of("io.write"),
        "io.bytes": size_of("io.write"),
    }
    layers = {layer: 0.0 for layer in LAYERS}
    for i in range(n):
        if in_op[i]:
            layer = spans[i].name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + self_s[i]
    values.update({f"{layer}.self_s": layers[layer] for layer in LAYERS})
    values["trace.wall_s"] = wall
    return values
