"""Artifact serialization: deterministic CSV, JSON summaries, binary fields.

Float cells print with 17 significant digits, so identical runs produce
byte-identical files on any IEEE-754 platform.  No artifact holds a
non-finite value: this module owns that rule for both kinds of text
artifact, and :func:`write_csv` and :func:`write_summary` raise
EvaluationError before they open the file.

Each CLI process runs one subcommand, and this module adds little to its
peak memory: the config digest comes from CPython's built-in SHA-256, not
from OpenSSL, CSV rows go to the file as they are formatted, and a field
dump writes the array's own buffer.
"""

import json
import math
import struct

import numpy as np

# CPython's built-in SHA-256 gives hashlib's digest without loading OpenSSL
try:
    from _sha2 import sha256 as _sha256        # CPython 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from .errors import ConfigurationError, DomainError, EvaluationError
from .grid import StripField

__all__ = ["write_csv", "config_hash", "write_summary", "write_field_binary",
           "read_field_binary"]

_FLOAT_FMT = "%.17g"
_MAGIC = b"CDN1"


def write_csv(path, columns) -> None:
    """Write ordered ``(name, 1-d array)`` pairs of equal length, each row
    to the file as it is formatted.  A non-finite cell raises
    EvaluationError before the file is opened."""
    names = [name for name, _ in columns]
    arrays = [np.asarray(arr, dtype=float) for _, arr in columns]
    n = arrays[0].size if arrays else 0
    for name, arr in zip(names, arrays):
        if arr.ndim != 1 or arr.size != n:
            raise DomainError(f"column {name} has shape {arr.shape}, want ({n},)")
        if not np.all(np.isfinite(arr)):
            raise EvaluationError(f"column {name} holds a non-finite value")
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(",".join(names) + "\n")
        for i in range(n):
            f.write(",".join(_FLOAT_FMT % arr[i] for arr in arrays) + "\n")


def config_hash(config: dict, seed: int) -> str:
    """sha256 of the canonical JSON of the merged config, salted by the seed
    (the seed participates even when no randomness is consumed), taken with
    CPython's built-in SHA-256 where the interpreter has one."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return _sha256(f"{canon}|seed={seed}".encode("ascii")).hexdigest()


def _refuse_non_finite(value, key: str) -> None:
    """Raise EvaluationError at the first non-finite number in a metric;
    None, a check not run, and strings pass."""
    if isinstance(value, dict):
        for k, v in value.items():
            _refuse_non_finite(v, f"{key}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _refuse_non_finite(v, f"{key}[{i}]")
    elif value is not None and not isinstance(value, str) and not math.isfinite(value):
        raise EvaluationError(f"metric {key} is not finite: {value}")


def write_summary(path, subcommand: str, passed: bool, metrics: dict,
                  cfg_hash: str) -> None:
    """Write the JSON summary of a run.  A non-finite metric, at any depth
    of its lists and dicts, raises EvaluationError before the file is
    opened."""
    for key, value in metrics.items():
        _refuse_non_finite(value, key)
    doc = {
        "subcommand": subcommand,
        "pass": bool(passed),
        "metrics": metrics,
        "config_hash": cfg_hash,
    }
    with open(path, "w", encoding="ascii", newline="\n") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")


def write_field_binary(path, field: StripField) -> None:
    """Row-major float64 dump behind a 16-byte header (magic, n_sigma,
    column count, reserved word); the payload is the array's own buffer,
    not a copy."""
    vals = field.values
    n_sigma, n_cols = vals.shape
    with open(path, "wb") as f:
        f.write(_MAGIC + struct.pack("<III", n_sigma, n_cols, 0))
        f.write(np.ascontiguousarray(vals, dtype="<f8"))


def read_field_binary(path) -> tuple[int, int, np.ndarray]:
    """Header-checked inverse of :func:`write_field_binary`; returns
    ``(n_sigma, n_cols, values)``."""
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) != 16 or header[:4] != _MAGIC:
            raise ConfigurationError(f"{path}: not a CDN1 field file")
        n_sigma, n_cols, _ = struct.unpack("<III", header[4:])
        data = np.frombuffer(f.read(), dtype="<f8")
    if data.size != n_sigma * n_cols:
        raise ConfigurationError(
            f"{path}: payload holds {data.size} values, "
            f"header promises {n_sigma * n_cols}")
    return n_sigma, n_cols, data.reshape(n_sigma, n_cols).copy()
