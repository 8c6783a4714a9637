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
N_START = 64         # angles per circle at periodic_trapezoid's first level
INITIAL_PANELS = 4   # panels adaptive_gauss starts from


def periodic_trapezoid(f, radii, tol, n_max=1 << 20):
    """For each r in radii, the integral over theta in [0, 2pi) of
    f(r e^{i theta}); f maps an array of complex points to values of the
    same shape.

    Each circle doubles its node count from N_START until two successive
    estimates agree to tol (relative to max(1, |I|)), and stops at the level
    where it would stop alone. Every level hands f the circles still running
    as (rows, angles) arrays of about CHUNK_POINTS points. Raises
    QuadratureBudgetError for the first circle still running at n_max.
    """
    radii = np.asarray(radii, dtype=float)
    totals = np.zeros(radii.size)
    integrals = np.full(radii.size, np.inf)   # so the first level's error is inf
    errors = np.full(radii.size, np.inf)
    running = np.arange(radii.size)
    n = N_START
    theta = np.arange(n) * (2 * np.pi / n)
    while True:
        per_call = max(1, CHUNK_POINTS // theta.size)
        for start in range(0, running.size, per_call):
            rows = running[start:start + per_call]
            totals[rows] += np.asarray(f(radii[rows, None] * np.exp(1j * theta))).sum(axis=1)
        new = totals[running] * (2 * np.pi / n)
        errors[running] = np.abs(new - integrals[running])
        integrals[running] = new
        running = running[~(errors[running] <= tol * np.maximum(1.0, np.abs(new)))]
        if not running.size:
            return integrals
        if n >= n_max:
            break
        theta = np.arange(n) * (2 * np.pi / n) + np.pi / n   # the midpoints
        n *= 2
    row = running[0]
    raise QuadratureBudgetError("periodic trapezoid did not converge",
                                float(integrals[row]), float(errors[row]))


def _gl_panel(f, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GL_NODES
    return half * np.dot(_GL_WEIGHTS, f(x))


def adaptive_gauss(f, a, b, tol, max_panels=4096):
    """Adaptive Gauss-Legendre integration on [a, b] of a function f that maps
    an array of nodes to an array of values; each panel's nodes go to f in
    one call. Values with a trailing axis are several integrands on the same
    panels, and the result has that axis.

    Panels are split until the whole-vs-halves discrepancy, in its largest
    component, is below the tolerance share of each panel. Raises
    QuadratureBudgetError (carrying the achieved estimate and bound) when the
    panel budget is exhausted.
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
        err = np.max(np.abs(left + right - whole))
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
