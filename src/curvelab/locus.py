"""Equal-value locus of max_j Re P_j outside a computed regularity radius.

For polynomial exponents the locus E splits into pair loci {Re(P_i - P_j) = 0}
whose far branches converge to the 2*deg asymptotic rays of each difference.
Outside every root of P_i - P_j each branch is where the unwrapped phase of
P_i - P_j meets its own target pi/2 + m*pi, once on each circle |z| = r;
along each branch the jump density J/2pi with J = |(P_i - P_j)'| accumulates
the Riesz measure of the max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import AsymptoticsError
from .polynomials import cauchy_fraction, horner, pair_differences, refine_angles, stack

TWO_PI = 2 * math.pi
_RATIO = 1.01   # radius ratio of consecutive trace circles
B_GATE = 0.05   # absolute gap allowed between fitted and symbolic b_k
C_GATE = 0.05   # relative gap allowed between fitted and symbolic c_k


def _pairs(polys):
    """The (i, j, D, degree) of pair_differences that trace_branches follows,
    D trimmed to the widest: those that vary, with neither member repeating
    the real part of an earlier polynomial (which would double-count the Riesz
    measure). Equal real parts are an equivalence, so one mask finds repeats."""
    i, j, diffs, degree = pair_differences(polys)
    repeat = np.zeros(len(polys), dtype=bool)
    repeat[j[(degree == 0) & (diffs[:, 0].real == 0)]] = True
    keep = (degree > 0) & ~repeat[i] & ~repeat[j]
    return i[keep], j[keep], diffs[keep, :degree[keep].max(initial=0) + 1], degree[keep]


def regularity_radius(polys):
    """r0 = 2 * (1 + max over pairs of the Cauchy root-bound fraction of D D'
    for D = P_i - P_j), 2 for an empty locus; beyond r0 every pair locus is a
    union of smooth disjoint arcs heading to its asymptotic rays."""
    _, _, diffs, degree = _pairs(list(polys))
    slopes = diffs[:, 1:] * np.arange(1, diffs.shape[1])     # the rows D'
    bound = max((cauchy_fraction(npoly.polymul(row[:d + 1], slope[:d]))
                 for row, slope, d in zip(diffs, slopes, degree.tolist())), default=0.0)
    return 2.0 * (1.0 + bound)


@dataclass
class LocusBranch:
    pair: tuple
    points: np.ndarray          # complex trace points
    arclens: np.ndarray         # chord lengths between consecutive points
    densities: np.ndarray       # J/2pi at each point
    active_mask: np.ndarray     # dominance of the pair at each point
    b_k: float                  # the jump density is ~ c_k * r^b_k far out
    c_k: float
    active: bool                # the pair holds the max on the tail radii


@dataclass
class LocusSummary:
    r0: float
    r_max: float                # the outermost trace circle
    branches: list
    b: float
    c0: float


def tied(values, rel):
    """Mask of the rows of ``values`` that attain the column max up to
    rel * (1 + |max|): which of the functions tie for the max at each point."""
    vmax = values.max(axis=0)
    return values >= vmax - rel * (1.0 + np.abs(vmax))


def _pair_active(exponents, i, j, z):
    """Whether the larger of Re P_i, Re P_j attains max_k Re P_k at z, the P_k
    the rows of ``exponents``; the pair indices i, j broadcast against the
    points z, so each point may belong to its own pair. A point off its locus
    by rounding is still active when either member holds the max."""
    values = horner(exponents, np.ravel(z)).real
    top = tied(values.reshape((len(exponents),) + np.shape(z)), 1e-8)
    k = np.arange(len(exponents)).reshape((-1,) + (1,) * np.ndim(z))
    return np.any(top & ((k == i) | (k == j)), axis=0)


def _radius_grid(r0, r_max):
    """The trace radii r0 * 1.01^k below r_max, then r_max."""
    if r_max <= r0:
        raise ValueError("r_max must exceed r0")
    steps = math.ceil(math.log(r_max / r0) / math.log(_RATIO))
    return np.append(r0 * _RATIO ** np.arange(steps), r_max)


def _roots(diffs):
    """The roots of each row of ``diffs`` (ascending, one degree d) as np.roots
    finds them: the eigenvalues of the companion matrix of the row without its
    s zero lowest coefficients, then s zeros; one stacked eigvals for each s."""
    d, low = diffs.shape[1] - 1, np.argmax(diffs != 0, axis=1)
    roots = np.zeros((len(diffs), d), dtype=complex)
    for s in np.unique(low[low < d]).tolist():
        rows, m = np.flatnonzero(low == s), d - s
        companion = np.zeros((len(rows), m, m), dtype=complex)
        companion[:, 1:, :-1] = np.eye(m - 1)
        companion[:, 0] = -diffs[rows, s:-1][:, ::-1] / diffs[rows, -1:]
        roots[rows, :m] = np.linalg.eigvals(companion)
    return roots


def _root_sum(a):
    """a.sum(axis=-1) over the d roots: numpy adds fewer than 8 in order, as
    these adds do at a tenth of its cost, and 8 or more pairwise."""
    return a.sum(axis=-1) if a.shape[-1] >= 8 else sum((a[..., k] for k in range(1, a.shape[-1])), a[..., 0])


def _branch_angles(diffs, radii):
    """Angle of each branch of Re D = 0 at each radius for each row D of
    ``diffs`` (ascending, all of one degree d), shape (rows, radii, 2d): the
    branches in ascending angle at radii[0], which must exceed every root, and
    values in [0, 2pi). Branch m solves phi = pi/2 + m pi for the unwrapped
    phase phi of D(r e^{i theta}) by safeguarded Newton steps on all rows and
    radii at once; a row stops at the step where it would stop if solved alone
    (README, "Tracing the locus")."""
    diffs = np.asarray(diffs, dtype=complex)
    roots = _roots(diffs)[:, None, None, :]
    radii = np.asarray(radii, dtype=float)[:, None]
    if np.any(radii[0, 0] <= np.abs(roots)):
        raise ValueError(f"r0 = {radii[0, 0]:g} does not exceed every root, up to {np.abs(roots).max():g}")
    d, c = diffs.shape[1] - 1, np.angle(diffs[:, -1])[:, None, None]
    phase0 = c + _root_sum(np.angle(1 - roots / radii[0, 0]))
    tau = np.pi * (np.ceil(phase0 / np.pi - 0.5) + 0.5 + np.arange(2 * d))
    spread = _root_sum(np.arcsin(np.abs(roots) / radii[..., None]))
    lo, hi = (tau - c - spread) / d, (tau - c + spread) / d
    theta, done = 0.5 * (lo + hi), np.zeros((len(diffs), 1, 1), dtype=bool)
    for _ in range(60):
        v = roots / (radii * np.exp(1j * theta))[..., None]
        w = 1 - v
        f = c + d * theta + _root_sum(np.angle(w)) - tau
        lo, hi = np.where(f < 0, theta, lo), np.where(f < 0, hi, theta)
        step = f / (d + _root_sum((v / w).real))
        inside = (lo <= theta - step) & (theta - step <= hi)
        theta = np.where(done, theta, np.where(inside, theta - step, 0.5 * (lo + hi)))
        done = done | (np.abs(step).max(axis=(1, 2), keepdims=True) <= 1e-14)
        if done.all():
            break
    return np.mod(theta, TWO_PI)


def _transitions(exponents, i, j, coeffs, r_lo, r_hi, th_lo, th_hi, flag):
    """Points where the dominance of the branch through (r_lo, th_lo) and
    (r_hi, th_hi) stops being ``flag``, for every bracket at once: bisection
    in r, each probe put on its branch by Newton's method in theta from the
    mean angle of the bracket's ends, until a step moves no end (every later
    one would repeat it). Row k of ``coeffs`` holds the difference polynomial of bracket k."""
    th_hi = th_lo + np.angle(np.exp(1j * (th_hi - th_lo)))
    slope = npoly.polyder(coeffs, axis=1)
    for _ in range(60):
        r = 0.5 * (r_lo + r_hi)
        th = refine_angles(coeffs, r, 0.5 * (th_lo + th_hi), slope)
        same = _pair_active(exponents, i, j, r * np.exp(1j * th)) == flag
        if np.all(np.where(same, (r == r_lo) & (th == th_lo), (r == r_hi) & (th == th_hi))):
            break
        r_lo, th_lo = np.where(same, r, r_lo), np.where(same, th, th_lo)
        r_hi, th_hi = np.where(same, r_hi, r), np.where(same, th_hi, th)
    r = 0.5 * (r_lo + r_hi)
    return r * np.exp(1j * refine_angles(coeffs, r, 0.5 * (th_lo + th_hi), slope))


def _columns(pairs, radii):
    """The angles of every branch of every pair at the radii, one column per
    branch in pair order (see _branch_angles), from one solve per degree; the
    pair of each column; and each column's (b_k, c_k) = (d - 1, d |a_d| / 2pi)
    for its pair's degree d and leading coefficient a_d (the jump density is
    ~ c_k r^b_k far out; Python's complex abs, as numpy's may round otherwise)."""
    _, _, diffs, degree = pairs
    col = np.repeat(np.arange(degree.size), 2 * degree)
    theta = np.empty((len(radii), col.size))
    for d in np.unique(degree).tolist():
        theta[:, degree[col] == d] = np.hstack(_branch_angles(diffs[degree == d, :d + 1], radii))
    lead = np.array([abs(a) for a in diffs[np.arange(degree.size), degree].tolist()])
    return theta, col, (degree - 1.0)[col], (degree * lead / TWO_PI)[col]


def _tail(rows):
    """The rows of the last max(4, N/10) of N trace radii."""
    return rows[-max(4, len(rows) // 10):]


def _far_field(b_k, c_k, active):
    """(b, c0) of the locus: b is the largest b_k of the ``active`` columns
    and c0 the largest c_k among those with b_k = b; (-inf, 0) for none."""
    b = b_k[active].max(initial=-math.inf)
    return float(b), float(c_k[active & (b_k == b)].max(initial=0.0))


def tail_exponents(polys, r0, r_max):
    """The (b, c0) of trace_branches(polys, r0, r_max) without the trace: a
    branch is active when its pair holds the max on all of the tail radii, so
    only those are classified; r0 leads the solved radii, to be checked."""
    radii = np.append(r0, _tail(_radius_grid(r0, r_max)))
    pairs = _pairs(polys)
    if not pairs[3].size:
        return -math.inf, 0.0
    theta, col, b_k, c_k = _columns(pairs, radii)
    points = radii[1:, None] * np.exp(1j * theta[1:])
    flags = _pair_active(stack(polys), pairs[0][col], pairs[1][col], points)
    return _far_field(b_k, c_k, flags.all(axis=0))


def trace_branches(polys, r0, r_max):
    """Trace every branch of the equal-value locus from |z| = r0 out to
    |z| = r_max and assemble the summary (asymptotic exponents b, c0); an
    empty locus gives no branches, b = -inf and c0 = 0.

    r0 must exceed every root of every P_i - P_j, as ``regularity_radius``
    does, else ValueError. Each branch is sampled where it crosses the circles
    r0 * 1.01^k below r_max and the circle r_max; every sample is classified
    at once, and the point where a branch's dominance changes is inserted
    between the samples on either side of it. A branch is active when its pair
    holds the max on the last max(4, N/10) of the N circles (tail_exponents)."""
    polys = list(polys)
    radii = _radius_grid(r0, r_max)
    pairs = _pairs(polys)
    if not pairs[3].size:
        return LocusSummary(r0=r0, r_max=r_max, branches=[], b=-math.inf, c0=0.0)
    theta, col, b_k, c_k = _columns(pairs, radii)
    exponents, (i, j, diffs, _) = stack(polys), pairs
    i, j = i[col], j[col]
    points = radii[:, None] * np.exp(1j * theta)
    flags = _pair_active(exponents, i, j, points)
    active = _tail(flags).all(axis=0)
    k, c = np.nonzero(flags[1:] != flags[:-1])
    ends = np.empty(0, complex) if not k.size else _transitions(
        exponents, i[c], j[c], diffs[col[c]], radii[k], radii[k + 1], theta[k, c], theta[k + 1, c], flags[k, c])
    # the samples of each branch in turn (column-major), each transition after sample k of its column c
    at, sizes = c * len(radii) + k + 1, len(radii) + np.bincount(c, minlength=col.size)
    pts, mask = np.insert(points.T.ravel(), at, ends), np.insert(flags.T.ravel(), at, flags[k + 1, c])
    slopes = diffs[:, 1:] * np.arange(1, diffs.shape[1])    # the rows D'; each point reads its pair's
    densities = np.abs(horner(slopes[np.repeat(col, sizes)], pts[:, None])[:, 0]) / TWO_PI
    gaps = np.abs(np.diff(pts, append=pts[-1:]))    # the last gap of each branch runs to the next
    parts = (np.split(a, np.cumsum(sizes)[:-1]) for a in (pts, gaps, densities, mask))
    branches = [LocusBranch(pair, p, g[:-1], d, m, b, ck, on) for pair, p, g, d, m, b, ck, on in
                zip(zip(i.tolist(), j.tolist()), *parts, b_k.tolist(), c_k.tolist(), active.tolist())]
    return LocusSummary(r0, r_max, branches, *_far_field(b_k, c_k, active))


def branch_asymptotics(branch: LocusBranch):
    """Symbolic (b_k, c_k) from the difference polynomial, validated against a
    log-log fit of the jump density over the outer half of the trace."""
    radii = np.abs(branch.points)
    mask = radii >= math.sqrt(radii[0] * radii[-1])
    if np.count_nonzero(mask) < 8:
        raise AsymptoticsError("trace too short for an asymptotic fit; increase r_max")
    x = np.log(radii[mask])
    y = np.log(branch.densities[mask])
    slope, intercept = np.polyfit(x, y, 1)
    c_fit = math.exp(intercept)
    if abs(slope - branch.b_k) > B_GATE or abs(c_fit - branch.c_k) > C_GATE * branch.c_k:
        raise AsymptoticsError(
            f"asymptotics not reached on branch {branch.pair}: "
            f"fit (b={slope:.4f}, c={c_fit:.4g}) vs symbolic "
            f"(b={branch.b_k}, c={branch.c_k:.4g}); increase r_max")
    return branch.b_k, branch.c_k


def riesz_of_max(polys, t, r0=None, summary=None):
    """nu(t) - nu(r0): Riesz mass of max_j Re P_j accumulated along the active
    locus branches in the annulus r0 < |z| <= t, from the summary's trace
    (traced to t when not given); ValueError where the annulus leaves it."""
    if r0 is None:
        r0 = regularity_radius(polys)
    if t <= r0:
        raise ValueError("t must exceed r0")
    if summary is None:
        summary = trace_branches(polys, r0, t)
    if r0 < summary.r0 or t > summary.r_max:
        raise ValueError(f"{r0} < |z| <= {t} reaches beyond the trace, from r = {summary.r0} to {summary.r_max}")
    total = 0.0
    for br in summary.branches:
        pts, dens, act = br.points, br.densities, br.active_mask
        ra, rb = np.abs(pts[:-1]), np.abs(pts[1:])
        keep = act[:-1] & act[1:] & (rb > r0) & (ra <= t)
        frac = np.ones(len(ra))
        cut = (rb > t) & (rb > ra)
        frac[cut] = (t - ra[cut]) / (rb[cut] - ra[cut])
        total += float(np.sum((0.5 * (dens[:-1] + dens[1:]) * br.arclens * frac)[keep]))
    return total


def count_branch_bound(polys, sigma):
    """Asymptotic ray count of the locus against the 2n(n-1)(sigma+1) cap,
    over the pairs trace_branches follows: a polynomial whose real part
    repeats an earlier one adds no rays."""
    polys = list(polys)
    n = len(polys)
    count = 2 * int(_pairs(polys)[3].sum())
    bound = math.ceil(2 * n * (n - 1) * (sigma + 1))
    return count, bound, count <= bound
