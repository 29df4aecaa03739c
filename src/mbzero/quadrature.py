"""Shared quadrature and ODE stepping primitives.

Composite Gauss-Legendre panels carry the vertical-contour work; the
trapezoid-on-circle rule handles residue extraction (spectrally accurate
for periodic integrands); a Cash-Karp 4(5) pair drives the phase ODE.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NoConvergence


@lru_cache(maxsize=1)
def _gl_nodes():
    # on first use: numpy.polynomial costs milliseconds to import
    return np.polynomial.legendre.leggauss(16)


def panel_nodes_from_edges(edges: np.ndarray, refine: int = 0):
    """Composite 16-point Gauss-Legendre on sorted panel edges, every
    panel split at its midpoint `refine` times.  Panel order is fixed left
    to right, so reductions over the returned arrays are deterministic."""
    for _ in range(refine):
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])]))
    x, w = _gl_nodes()
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def circle_nodes(center: complex, radius: float, n_points: int = 64):
    """Equispaced nodes and d(s) weights for a counterclockwise circle."""
    theta = 2.0 * math.pi * np.arange(n_points) / n_points
    rim = np.exp(1j * theta)
    nodes = center + radius * rim
    weights = (2.0j * math.pi * radius / n_points) * rim
    return nodes, weights


_CK_A = (0.0, 0.2, 0.3, 0.6, 1.0, 0.875)
_CK_B = (
    (),
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (0.3, -0.9, 1.2),
    (-11.0 / 54.0, 2.5, -70.0 / 27.0, 35.0 / 27.0),
    (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0,
     44275.0 / 110592.0, 253.0 / 4096.0),
)
_CK_C = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
_CK_D = (2825.0 / 27648.0, 0.0, 18575.0 / 48384.0, 13525.0 / 55296.0,
         277.0 / 14336.0, 0.25)


def rk_adaptive(f, x0: float, y0: float, x1: float, tol: float = 1e-10,
                record=None):
    """Integrate y' = f(x, y) from x0 to x1 with a Cash-Karp 4(5) pair.

    `record(x, y)` is invoked after each accepted step.  Raises
    NoConvergence if the step collapses below 1e-14 * span.
    """
    span = abs(x1 - x0)
    if span == 0.0:
        return y0
    direction = 1.0 if x1 > x0 else -1.0
    x, y = x0, y0
    h = direction * min(0.1 * span, 0.1)
    floor = 1e-14 * span
    while direction * (x1 - x) > 1e-15 * span:
        if abs(h) > abs(x1 - x):
            h = x1 - x
        k = [f(x, y)]
        for i in range(1, 6):
            yi = y + h * sum(b * kk for b, kk in zip(_CK_B[i], k))
            k.append(f(x + _CK_A[i] * h, yi))
        y5 = y + h * sum(c * kk for c, kk in zip(_CK_C, k))
        y4 = y + h * sum(d * kk for d, kk in zip(_CK_D, k))
        err = abs(y5 - y4)
        scale = tol * max(1.0, abs(y))
        if err <= scale:
            x += h
            y = y5
            if record is not None:
                record(x, y)
            growth = 5.0 if err == 0.0 else min(5.0, 0.9 * (scale / err) ** 0.2)
            h *= growth
        else:
            h *= max(0.1, 0.9 * (scale / err) ** 0.25)
            if abs(h) < floor:
                raise NoConvergence(f"step underflow at x = {x}")
    return y

