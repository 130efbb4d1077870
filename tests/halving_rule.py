"""A composite Gauss-Legendre rule whose panels halve toward 0.

The package integrates on one rule builder, :func:`conedn.conical.sinh_rule`.
Tests that need a reference independent of it, or a fixed set of many angles,
take this rule, built by a plain loop.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss


def halving_rule(length: float, width: float, n_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, length], nodes ascending: the panel edges
    halve from ``length`` toward 0 until the panel at 0 is no wider than
    ``width``, with at most 40 panels, and each panel carries the
    ``n_per_panel``-point Gauss-Legendre rule."""
    edges = [length]
    while edges[-1] > width and len(edges) < 40:
        edges.append(edges[-1] / 2)
    edges = [0.0, *reversed(edges)]
    x, w = leggauss(n_per_panel)
    ts, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        ts.append(a + half * (x + 1.0))
        ws.append(half * w)
    return np.concatenate(ts), np.concatenate(ws)
