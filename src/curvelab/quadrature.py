"""Quadrature rules used throughout: periodic trapezoid with node doubling
(spectrally accurate for analytic periodic integrands) and adaptive
Gauss-Legendre panels for the radial integrals."""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureBudgetError

_GL_NODES, _GL_WEIGHTS = leggauss(15)
# Points per integrand or kernel call. Calls are split to about this size so
# that their (rows, points) temporaries stay small however far a rule refines;
# the compiled curve kernel in curves.py chunks its evaluations to it too.
CHUNK_POINTS = 8192
INITIAL_PANELS = 4   # panels adaptive_gauss starts from


class RowAngles(np.ndarray):
    """The angles periodic_trapezoid hands a batched integrand after its
    first call: one copy of the shared grid for each batch row in ``rows``."""

    rows: np.ndarray


def _row_angles(theta, rows):
    out = np.broadcast_to(theta, (rows.size, theta.size)).view(RowAngles)
    out.rows = rows
    return out


def circle_points(radii, theta):
    """The points r e^{i theta} a batched integrand over the circles ``radii``
    reads: every circle on the bare grid, the circles of the rows on RowAngles."""
    return radii[getattr(theta, "rows", slice(None)), None] * np.exp(1j * theta)


def periodic_trapezoid(f, tol, n_start=64, n_max=1 << 20):
    """Integral of f over [0, 2pi); f maps a 1-D angle array to a value array.

    Doubles the node count until two successive estimates agree to tol
    (relative to max(1, |I|)). An f that returns a leading batch axis is a
    batch of integrands sharing the grid, and the result is one integral per
    row; a plain f is the one-row batch and always gets a 1-D angle array.
    Every row stops at the level where it would stop alone. A batched f gets
    the bare grid on its first call and returns every row; later calls get
    RowAngles for some of the rows still running and return just those rows.
    Raises QuadratureBudgetError for the first row still running at n_max.
    """
    n = n_start
    theta = np.arange(n) * (2 * np.pi / n)
    first = np.asarray(f(theta))
    totals = np.atleast_2d(first).sum(axis=1)
    integrals = totals * (2 * np.pi / n)
    errors = np.full(totals.shape, np.inf)
    running = np.arange(totals.size)
    while n < n_max:
        mid = theta + np.pi / n
        if first.ndim == 1:
            totals += np.asarray(f(mid)).sum()
        else:
            per_call = max(1, CHUNK_POINTS // n)
            for start in range(0, running.size, per_call):
                rows = running[start:start + per_call]
                totals[rows] += np.asarray(f(_row_angles(mid, rows))).sum(axis=1)
        n *= 2
        theta = np.arange(n) * (2 * np.pi / n)
        new = totals[running] * (2 * np.pi / n)
        errors[running] = np.abs(new - integrals[running])
        integrals[running] = new
        running = running[~(errors[running] <= tol * np.maximum(1.0, np.abs(new)))]
        if not running.size:
            return integrals if first.ndim == 2 else float(integrals[0])
    row = running[0]
    raise QuadratureBudgetError("periodic trapezoid did not converge",
                                float(integrals[row]), float(errors[row]))


def _gl_panel(f, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GL_NODES
    return half * float(np.dot(_GL_WEIGHTS, f(x)))


def adaptive_gauss(f, a, b, tol, max_panels=4096):
    """Adaptive Gauss-Legendre integration on [a, b] of a function f that maps
    an array of nodes to an array of values; each panel's nodes go to f in
    one call.

    Panels are split until the whole-vs-halves discrepancy is below the
    tolerance share of each panel. Raises QuadratureBudgetError (carrying the
    achieved estimate and bound) when the panel budget is exhausted.
    """
    if a == b:
        return 0.0
    edges = np.linspace(a, b, INITIAL_PANELS + 1)
    stack = [(edges[i], edges[i + 1], _gl_panel(f, edges[i], edges[i + 1]))
             for i in range(INITIAL_PANELS)]
    total = 0.0
    panels_used = INITIAL_PANELS
    while stack:
        lo, hi, whole = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _gl_panel(f, lo, mid)
        right = _gl_panel(f, mid, hi)
        err = abs(left + right - whole)
        if err <= tol * (hi - lo) / (b - a) or (hi - lo) < 1e-14 * abs(b - a):
            total += left + right
            continue
        panels_used += 2
        if panels_used > max_panels:
            remaining = sum(p[2] for p in stack)
            estimate = total + whole + remaining
            raise QuadratureBudgetError(
                "adaptive Gauss-Legendre panel budget exhausted", estimate, err)
        stack.append((lo, mid, left))
        stack.append((mid, hi, right))
    return total
