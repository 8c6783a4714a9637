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


def _gl_estimates(f, lo, hi):
    """The Gauss-Legendre estimate on each panel [lo[p], hi[p]], all nodes in one
    call to f; one dot per panel, as a tensordot over panels rounds differently."""
    half = 0.5 * (hi - lo)
    values = np.asarray(f(((0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES).reshape(-1)))
    values = values.reshape((lo.size, _GL_NODES.size) + values.shape[1:])
    return np.array([h * np.dot(_GL_WEIGHTS, v) for h, v in zip(half, values)])


def adaptive_gauss(f, a, b, tol, max_panels=4096):
    """Adaptive Gauss-Legendre integration on [a, b] of a function f that maps
    an array of nodes to an array of values. Values with a trailing axis are
    several integrands on the same panels, and the result has that axis.

    Panels are split until the whole-vs-halves discrepancy, in its largest
    component, is below the tolerance share of each panel. Each level hands the
    halves of all open panels to f in one call, and the accepted panels are
    summed from b towards a, so the result is the depth-first rule's to the
    last bit. Raises QuadratureBudgetError (carrying the achieved estimate and
    bound) when the panel budget is exhausted."""
    if a == b:
        return 0.0
    edges = np.linspace(a, b, INITIAL_PANELS + 1)
    lo, hi, whole = edges[:-1], edges[1:], _gl_estimates(f, edges[:-1], edges[1:])
    accepted = []   # (left end, left + right) of every accepted panel
    panels_used = INITIAL_PANELS
    while lo.size:
        mid = 0.5 * (lo + hi)
        halves = _gl_estimates(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        pair = halves[:lo.size] + halves[lo.size:]
        err = np.abs(pair - whole).reshape(lo.size, -1).max(axis=1)
        done = (err <= tol * (hi - lo) / (b - a)) | (hi - lo < 1e-14 * abs(b - a))
        accepted += zip(lo[done], pair[done])
        panels_used += 2 * np.count_nonzero(~done)
        if panels_used > max_panels:
            estimate = np.sum([s for _, s in accepted] + list(pair[~done]), axis=0)
            raise QuadratureBudgetError(
                "adaptive Gauss-Legendre panel budget exhausted", estimate, err[~done].max())
        lo, mid, hi, whole = lo[~done], mid[~done], hi[~done], halves[np.tile(~done, 2)]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    accepted.sort(key=lambda panel: panel[0], reverse=a < b)
    return np.cumsum([s for _, s in accepted], axis=0)[-1]   # added one by one in that order
