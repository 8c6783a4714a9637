"""Quadrature rules used throughout: periodic trapezoid with node doubling
(spectrally accurate for analytic periodic integrands), adaptive
Gauss-Legendre panels for the radial integrals, and Gauss-Kronrod panels on
given breakpoints for the Jensen circles whose ties are too sharp for the
trapezoid."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureBudgetError

_GL_NODES, _GL_WEIGHTS = leggauss(15)
# QUADPACK's qk15 to double precision: the Kronrod nodes in [0, 1], outermost first (every
# other one, from the second, a 7-point Gauss node), their weights, and those nodes' Gauss weights
_XGK = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
                 0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0])
_WGK = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
                 0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782])
_WG = np.array([0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694])
# the same on [-1, 1] in ascending order; the Gauss nodes are _GK_NODES[1::2]
_GK_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_WEIGHTS, _G7_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]]), np.concatenate([_WG, _WG[-2::-1]])
# Points per integrand or kernel call. Calls are split to about this size so
# that their (rows, points) temporaries stay small however far a rule refines;
# the compiled curve kernel in curves.py chunks its evaluations to it too.
CHUNK_POINTS = 8192
N_START = 64         # angles per circle at periodic_trapezoid's first level
N_MAX = 1 << 20      # angles per circle at which periodic_trapezoid gives up
INITIAL_PANELS = 4   # panels adaptive_gauss starts from
MAX_PANELS = 4096    # panels per interval at which adaptive_gauss gives up
JENSEN_MAX_PANELS = N_MAX // 15   # kronrod_panels' budget: as many nodes as N_MAX angles


def periodic_trapezoid(f, radii, tol):
    """For each r in radii, the integral over theta in [0, 2pi) of
    f(r e^{i theta}); f maps an array of complex points to values of the
    same shape.

    Each circle doubles its node count from N_START until two successive
    estimates agree to tol (relative to max(1, |I|)), and stops at the level
    where it would stop alone. Every level hands f the circles still running
    as (rows, angles) arrays of about CHUNK_POINTS points. Raises
    QuadratureBudgetError for the first circle still running at N_MAX.
    """
    integrals, errors, running = _trapezoid_levels(f, radii, tol, N_MAX)
    if running.size:
        row = running[0]
        raise QuadratureBudgetError("periodic trapezoid did not converge",
                                    float(integrals[row]), float(errors[row]))
    return integrals


def _trapezoid_levels(f, radii, tol, n_max):
    """periodic_trapezoid's rule, handing back the circles still running at
    n_max, one cap or one per circle: (integrals, errors, stopped), the last
    estimate and its change for every circle, and the indices of those circles."""
    radii = np.asarray(radii, dtype=float)
    totals = np.zeros(radii.size)
    integrals = np.full(radii.size, np.inf)   # so the first level's error is inf
    errors = np.full(radii.size, np.inf)
    running, stopped, lowest = np.arange(radii.size), np.zeros(radii.size, bool), np.min(n_max, initial=N_MAX)
    n = N_START
    while True:
        nodes = _level_nodes(n)
        per_call = max(1, CHUNK_POINTS // nodes.size)
        for start in range(0, running.size, per_call):
            rows = running[start:start + per_call]
            totals[rows] += np.asarray(f(radii[rows, None] * nodes)).sum(axis=1)
        new = totals[running] * (2 * np.pi / n)
        errors[running] = np.abs(new - integrals[running])
        integrals[running] = new
        running = running[~(errors[running] <= tol * np.maximum(1.0, np.abs(new)))]
        if n >= lowest:     # some circle may reach its cap at this level
            stopped[running] = capped = np.broadcast_to(n_max, radii.shape)[running] <= n
            running = running[~capped]
        if not running.size:
            return integrals, errors, np.flatnonzero(stopped)
        n *= 2


@lru_cache(maxsize=None)
def _level_nodes(n):
    """e^{i theta} at the angles new at level n of _trapezoid_levels, read-only:
    all n at N_START, after that the n/2 midpoints of the level before."""
    m = n // 2
    theta = np.arange(n) * (2 * np.pi / n) if n == N_START else np.arange(m) * (2 * np.pi / m) + np.pi / m
    nodes = np.exp(1j * theta)
    nodes.flags.writeable = False
    return nodes


def adaptive_gauss(f, a, b, tol):
    """Adaptive Gauss-Legendre integration on [a, b] of a function f that maps
    an array of nodes to an array of values. Values with a trailing axis are
    several integrands on the same panels, and the result has that axis.

    Panels are split until the whole-vs-halves discrepancy, in its largest
    component, is below the tolerance share of each panel. Each level hands the
    halves of all open panels to f in one call, and the accepted panels are
    summed from b towards a, so the result is the depth-first rule's to the
    last bit. Raises QuadratureBudgetError (carrying the achieved estimate and
    bound) when the panel count passes MAX_PANELS."""
    def gauss(lo, hi):
        half = 0.5 * (hi - lo)
        nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES
        values = np.asarray(f(nodes.reshape(-1)))
        # one dot per panel, the depth-first rule's bits (a dot over panels rounds otherwise)
        sums = np.array([np.dot(_GL_WEIGHTS, v) for v in values.reshape(nodes.shape + values.shape[1:])])
        return half.reshape((-1,) + (1,) * (sums.ndim - 1)) * sums

    def judge(lo, hi, whole):
        n, mid = lo.size, 0.5 * (lo + hi)
        halves = gauss(np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        pair = halves[:n] + halves[n:]
        return pair, np.abs(pair - whole).reshape(n, -1).max(axis=1), True, (halves[:n], halves[n:])

    # np.linspace(a, b)'s arithmetic
    edges = a + np.arange(INITIAL_PANELS + 1) * ((b - a) / INITIAL_PANELS)
    edges[-1] = b
    lo, hi = edges[:-1], edges[1:]
    return _refine(judge, gauss(lo, hi), np.array([a]), np.zeros(INITIAL_PANELS, dtype=int), lo, hi,
                   np.array([abs(b - a)]), np.array([tol]), MAX_PANELS)[0]


def kronrod_panels(f, a, k, lo, hi, tol):
    """Gauss-Kronrod (7, 15) integration on intervals cut into given panels:
    interval i starts at a[i] and holds the panels [lo[p], hi[p]] with k[p] = i,
    segments of the complex plane parallel to the real axis, in any order.
    Returns one value per interval.

    f gets each panel as a row of 17 points, its ends around its 15 nodes, in
    calls of about CHUNK_POINTS points, and returns the values at the nodes,
    shaped (panels, 15), and a boolean mask per panel. A panel is accepted
    when |K15 - G7| is within its width's share of its interval's tol and its
    mask holds; the rest are halved (_refine), up to JENSEN_MAX_PANELS per
    interval. Each interval is summed in a fixed order, so it gives the same
    bits alone as among others."""
    def judge(lo, hi, _):
        half = (0.5 * (hi - lo)).real     # parallel to the real axis: dx is real
        rows = np.concatenate([lo[:, None], (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES,
                               hi[:, None]], axis=1)
        per_call = max(1, CHUNK_POINTS // rows.shape[1])
        values, accept = (np.concatenate(parts) for parts in
                          zip(*(f(rows[start:start + per_call]) for start in range(0, len(rows), per_call))))
        kronrod = half * (values * _GK_WEIGHTS).sum(axis=1)    # each panel reduced over its own row
        return kronrod, np.abs(kronrod - half * (values[:, 1::2] * _G7_WEIGHTS).sum(axis=1)), accept, None

    a = np.asarray(a)
    span = np.bincount(k, np.abs(hi - lo), minlength=a.size)
    return _refine(judge, None, a, k, lo, hi, span, np.broadcast_to(tol, a.shape), JENSEN_MAX_PANELS)


def _refine(judge, carry, a, k, lo, hi, span, tol, max_panels):
    """The panel loop of both rules on the panels [lo[p], hi[p]] of the
    intervals k[p] that start at a[k] and are span[k] long. judge(lo, hi,
    carry) gives each open panel's (estimate, error, accept mask, carry of its
    two halves); a panel is accepted when its error is within its width's share
    of tol[k] and its mask holds, or when it is narrower than 1e-14 span[k].
    Each level halves the rest. Every interval's accepted panels are summed
    one by one from its far end towards a[k], the depth-first order. An
    interval past max_panels raises with the sum of its panels' estimates
    and of their bounds (each the larger of its error and its share of tol)."""
    accepted = []   # (interval, left end, estimate, bound) of the accepted panels of each level
    used = np.bincount(k, minlength=a.size)
    while lo.size:
        value, err, accept, carry = judge(lo, hi, carry)
        width = np.abs(hi - lo)
        share = tol[k] * width / span[k]
        done = (err <= share) & accept | (width < 1e-14 * span[k])
        err, keep = np.maximum(err, share), ~done    # a panel's bound: its error, or its share of tol
        accepted.append((k[done], lo[done], value[done], err[done]))
        used += 2 * np.bincount(k[keep], minlength=a.size)
        if (used > max_panels).any():
            j = np.argmax(used > max_panels)
            kk, _, values, errors = (np.concatenate(parts) for parts in
                                     zip(*accepted, (k[keep], lo[keep], value[keep], err[keep])))
            raise QuadratureBudgetError("adaptive Gauss-Legendre panel budget exhausted",
                                        np.sum(values[kk == j], axis=0), float(errors[kk == j].sum()))
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        k = np.concatenate([k[keep], k[keep]])
        carry = None if carry is None else np.concatenate([half[keep] for half in carry])
    k, lo, sums, _ = (np.concatenate(parts) for parts in zip(*accepted))
    order = np.lexsort((-np.abs(lo - a[k]), k))
    k, sums = k[order], sums[order]
    bounds = np.searchsorted(k, np.arange(a.size + 1))
    return np.array([np.cumsum(sums[i:j], axis=0)[-1] for i, j in zip(bounds[:-1], bounds[1:])])
