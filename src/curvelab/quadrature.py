"""Quadrature rules used throughout: periodic trapezoid with node doubling
(spectrally accurate for analytic periodic integrands) and adaptive
Gauss-Legendre panels, for the radial integrals and for the Jensen circles
whose ties are too sharp for the trapezoid."""

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
    integrals, errors, running = _trapezoid_levels(f, radii, tol, n_max)
    if running.size:
        row = running[0]
        raise QuadratureBudgetError("periodic trapezoid did not converge",
                                    float(integrals[row]), float(errors[row]))
    return integrals


def _trapezoid_levels(f, radii, tol, n_max):
    """periodic_trapezoid's rule, handing back the circles still running at
    n_max: (integrals, errors, running), the last estimate and its change for
    every circle, and the indices of those circles."""
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
        if not running.size or n >= n_max:
            return integrals, errors, running
        theta = np.arange(n) * (2 * np.pi / n) + np.pi / n   # the midpoints
        n *= 2


def _gl_estimates(f, lo, hi, weigh):
    """(estimate, accept) on each panel [lo[p], hi[p]], from one call f(lo,
    nodes, hi) for all panels; accept is None where f returns no mask."""
    half = 0.5 * (hi - lo)
    if half.dtype.kind == "c" and not half.imag.any():
        half = half.real           # panels parallel to the real axis: dx is real
    values, accept = f(lo, (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES, hi)
    sums = weigh(values)
    return half.reshape((-1,) + (1,) * (sums.ndim - 1)) * sums, accept


def _dot_each(values):
    """One dot per panel, the depth-first rule's bits (a dot over panels rounds otherwise)."""
    return np.array([np.dot(_GL_WEIGHTS, v) for v in values])


def _node_by_node(values):
    """Each panel's weighted sum reduced over its own row: no panel's bits depend on another's."""
    return (values * _GL_WEIGHTS.reshape((-1,) + (1,) * (values.ndim - 2))).sum(axis=1)


def adaptive_gauss(f, a, b, tol, max_panels=4096):
    """Adaptive Gauss-Legendre integration on [a, b] of a function f that maps
    an array of nodes to an array of values. Values with a trailing axis are
    several integrands on the same panels, and the result has that axis.

    Panels are split until the whole-vs-halves discrepancy, in its largest
    component, is below the tolerance share of each panel. Each level hands the
    halves of all open panels to f in one call, and the accepted panels are
    summed from b towards a, so the result is the depth-first rule's to the
    last bit. Raises QuadratureBudgetError (carrying the achieved estimate and
    bound) when the panel budget is exhausted.

    Arrays a, b and tol give many intervals, each with its own panel tree,
    tolerance and budget, refined together; the result has a row per interval.
    They are segments of the complex plane, so f tells them apart by its points.
    f then gets each panel as a row of 17 points, its ends around its 15 nodes,
    about CHUNK_POINTS points per call, and returns the values at the nodes,
    shaped (panels, 15[, k]), optionally with a boolean mask per panel: a panel
    whose mask is False is split even when its halves agree with it."""
    if np.ndim(a) == 0:
        if a == b:
            return 0.0

        def on_nodes(lo, nodes, hi):
            values = np.asarray(f(nodes.reshape(-1)))
            return values.reshape(nodes.shape + values.shape[1:]), None

        return _panel_trees(on_nodes, np.array([a]), np.array([b]), np.array([tol]), max_panels,
                            _dot_each)[0]

    def on_rows(lo, nodes, hi):
        rows = np.concatenate([lo[:, None], nodes, hi[:, None]], axis=1)
        per_call = max(1, CHUNK_POINTS // rows.shape[1])
        parts = [f(rows[start:start + per_call]) for start in range(0, len(rows), per_call)]
        if not isinstance(parts[0], tuple):
            return np.concatenate(parts), None
        values, accept = zip(*parts)
        return np.concatenate(values), np.concatenate(accept)

    return _panel_trees(on_rows, np.asarray(a), np.asarray(b), np.broadcast_to(tol, np.shape(a)),
                        max_panels, _node_by_node)


def _panel_trees(f, a, b, tol, max_panels, weigh):
    """adaptive_gauss on the intervals [a[k], b[k]], with f(lo, nodes, hi) giving
    the values at the nodes of all panels and their accept mask (or None)."""
    span = np.abs(b - a)
    # np.linspace(a, b)'s arithmetic for every interval at once
    edges = a[:, None] + np.arange(INITIAL_PANELS + 1) * ((b - a) / INITIAL_PANELS)[:, None]
    edges[:, -1] = b
    lo, hi = edges[:, :-1].reshape(-1), edges[:, 1:].reshape(-1)
    k = np.repeat(np.arange(a.size), INITIAL_PANELS)
    whole, ok = _gl_estimates(f, lo, hi, weigh)
    accepted = []   # (interval, left end, left + right) of the accepted panels of each level
    panels_used = np.full(a.size, INITIAL_PANELS)
    while lo.size:
        n, mid = lo.size, 0.5 * (lo + hi)
        halves, ok_halves = _gl_estimates(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                                          weigh)
        pair = halves[:n] + halves[n:]
        err = np.abs(pair - whole).reshape(n, -1).max(axis=1)
        width, span_k = np.abs(hi - lo), span[k]
        done = err <= tol[k] * width / span_k
        if ok is not None:
            done &= ok
        done |= width < 1e-14 * span_k
        keep = ~done
        accepted.append((k[done], lo[done], pair[done]))
        panels_used += 2 * np.bincount(k[keep], minlength=a.size)
        if (panels_used > max_panels).any():
            j = np.argmax(panels_used > max_panels)
            estimate = np.sum([s for kk, _, part in accepted for s in part[kk == j]]
                              + list(pair[keep & (k == j)]), axis=0)
            raise QuadratureBudgetError("adaptive Gauss-Legendre panel budget exhausted",
                                        estimate, err[keep & (k == j)].max())
        keep_halves = np.concatenate([keep, keep])
        whole = halves[keep_halves]
        ok = None if ok_halves is None else ok_halves[keep_halves]
        lo, mid, hi, k = lo[keep], mid[keep], hi[keep], k[keep]
        lo, hi, k = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.concatenate([k, k])
    k, lo, sums = (np.concatenate(parts) for parts in zip(*accepted))
    # each interval's panels added one by one from b towards a, the depth-first order
    order = np.lexsort((-np.abs(lo - a[k]), k))
    k, sums = k[order], sums[order]
    bounds = np.searchsorted(k, np.arange(a.size + 1))
    return np.array([np.cumsum(sums[i:j], axis=0)[-1] for i, j in zip(bounds[:-1], bounds[1:])])
