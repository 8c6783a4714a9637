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

from .errors import AsymptoticsError, LocusEmptyError
from .polynomials import ComplexPoly, cauchy_fraction, horner, refine_angles, stack

TWO_PI = 2 * math.pi
_RATIO = 1.01   # radius ratio of consecutive trace circles
B_GATE = 0.05   # absolute gap allowed between fitted and symbolic b_k
C_GATE = 0.05   # relative gap allowed between fitted and symbolic c_k


def _re_equivalent(diff: ComplexPoly) -> bool:
    """True when Re(P_i - P_j) vanishes identically."""
    return diff.is_constant() and (diff.is_zero or diff.coeffs[0].real == 0.0)


def _distinct_indices(polys):
    """Drop polynomials whose real part duplicates an earlier one; duplicate
    pairs would otherwise double-count the Riesz measure."""
    keep = []
    for i, p in enumerate(polys):
        if all(not _re_equivalent(p - polys[k]) for k in keep):
            keep.append(i)
    return keep


def _pairs(polys):
    """(i, j, P_i - P_j) for the distinct i < j whose difference is not constant."""
    keep = _distinct_indices(polys)
    diffs = [(i, j, polys[i] - polys[j]) for a, i in enumerate(keep) for j in keep[a + 1:]]
    return [pair for pair in diffs if not pair[2].is_constant()]


def regularity_radius(polys):
    """r0 = 2 * (1 + max over pairs of the Cauchy root-bound fraction of
    (P_i - P_j) * (P_i - P_j)'); beyond r0 every pair locus is a union of
    smooth disjoint arcs heading to its asymptotic rays."""
    polys = list(polys)
    if len(polys) < 2:
        raise LocusEmptyError("need at least two exponent polynomials")
    pairs = _pairs(polys)
    if not pairs:
        raise LocusEmptyError("locus empty: all exponents share the same real part")
    bound = max(cauchy_fraction(diff * diff.deriv()) for _, _, diff in pairs)
    return 2.0 * (1.0 + bound)


@dataclass
class LocusBranch:
    pair: tuple
    diff: ComplexPoly
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
    branches: list
    b: float
    c0: float


def tied(values, rel):
    """Mask of the rows of ``values`` that attain the column max up to
    rel * (1 + |max|): which of the functions tie for the max at each point."""
    vmax = values.max(axis=0)
    return values >= vmax - rel * (1.0 + np.abs(vmax))


def _pair_active(polys, i, j, z):
    """Whether the larger of Re P_i, Re P_j attains max_k Re P_k at z; the
    pair indices i, j broadcast against the points z, so each point may
    belong to its own pair. A point off its locus by rounding is still active
    when either member holds the max."""
    values = horner(stack(polys), np.ravel(z)).real
    top = tied(values.reshape((len(polys),) + np.shape(z)), 1e-8)
    k = np.arange(len(polys)).reshape((-1,) + (1,) * np.ndim(z))
    return np.any(top & ((k == i) | (k == j)), axis=0)


def _radius_grid(r0, r_max):
    """The trace radii r0 * 1.01^k below r_max, then r_max."""
    if r_max <= r0:
        raise ValueError("r_max must exceed r0")
    steps = math.ceil(math.log(r_max / r0) / math.log(_RATIO))
    return np.append(r0 * _RATIO ** np.arange(steps), r_max)


def _branch_angles(diff, radii):
    """Angle of each branch of Re diff = 0 at each radius: one row per radius,
    one column per branch, the columns in ascending angle at radii[0], values
    in [0, 2pi). radii[0] must exceed the modulus of every root of diff.

    Column m solves phi = pi/2 + m pi for the unwrapped phase phi of
    diff(r e^{i theta}), the same target at every radius, by safeguarded
    Newton steps on all radii at once (README, "Tracing the locus")."""
    roots = np.roots(diff.coeffs[::-1])
    radii = np.asarray(radii, dtype=float)[:, None]
    if radii[0, 0] <= np.abs(roots).max():
        raise ValueError(f"r0 = {radii[0, 0]:g} does not exceed every root of {diff!r}")
    d, c = len(roots), np.angle(diff.leading)
    phase0 = c + np.angle(1 - roots / radii[0, 0]).sum()
    tau = np.pi * (np.ceil(phase0 / np.pi - 0.5) + 0.5 + np.arange(2 * d))
    spread = np.arcsin(np.abs(roots) / radii).sum(axis=1, keepdims=True)
    lo, hi = (tau - c - spread) / d, (tau - c + spread) / d
    theta = 0.5 * (lo + hi)
    for _ in range(60):
        v = roots / (radii * np.exp(1j * theta))[..., None]
        f = c + d * theta + np.angle(1 - v).sum(axis=2) - tau
        lo, hi = np.where(f < 0, theta, lo), np.where(f < 0, hi, theta)
        step = f / (d + (v / (1 - v)).real.sum(axis=2))
        inside = (lo <= theta - step) & (theta - step <= hi)
        theta = np.where(inside, theta - step, 0.5 * (lo + hi))
        if np.abs(step).max() <= 1e-14:
            break
    return np.mod(theta, TWO_PI)


def _transitions(polys, i, j, coeffs, r_lo, r_hi, th_lo, th_hi, flag):
    """Points where the dominance of the branch through (r_lo, th_lo) and
    (r_hi, th_hi) stops being ``flag``, for every bracket at once: bisection
    in r, each probe put on its branch by Newton's method in theta from the
    mean angle of the bracket's ends, until a step moves no end (every later
    one would repeat it). Row k of ``coeffs`` holds the difference polynomial of bracket k."""
    th_hi = th_lo + np.angle(np.exp(1j * (th_hi - th_lo)))
    for _ in range(60):
        r = 0.5 * (r_lo + r_hi)
        th = refine_angles(coeffs, r, 0.5 * (th_lo + th_hi))
        same = _pair_active(polys, i, j, r * np.exp(1j * th)) == flag
        if np.all(np.where(same, (r == r_lo) & (th == th_lo), (r == r_hi) & (th == th_hi))):
            break
        r_lo, th_lo = np.where(same, r, r_lo), np.where(same, th, th_lo)
        r_hi, th_hi = np.where(same, r_hi, r), np.where(same, th_hi, th)
    r = 0.5 * (r_lo + r_hi)
    return r * np.exp(1j * refine_angles(coeffs, r, 0.5 * (th_lo + th_hi)))


def _columns(pairs, radii):
    """The angles of every branch of every pair at the radii, one column per
    branch (see _branch_angles), and the pair indices i, j of each column."""
    theta = np.hstack([_branch_angles(diff, radii) for _, _, diff in pairs])
    col = np.repeat(np.arange(len(pairs)), [2 * int(diff.degree()) for _, _, diff in pairs])
    i, j = np.array([pair[:2] for pair in pairs])[col].T
    return theta, col, i, j


def _tail(rows):
    """The rows of the last max(4, N/10) of N trace radii."""
    return rows[-max(4, len(rows) // 10):]


def _branch_exponents(diff):
    """(b_k, c_k) of a branch of Re diff = 0."""
    deg = int(diff.degree())
    return float(deg - 1), deg * abs(diff.leading) / TWO_PI


def _far_field(pairs, col, active):
    """(b, c0) of the locus: b is the largest b_k of the ``active`` columns
    and c0 the largest c_k among those with b_k = b; (-inf, 0) for none."""
    exps = [_branch_exponents(pairs[p][2]) for p in col[active]]
    b = max((b_k for b_k, _ in exps), default=-math.inf)
    return b, max((c_k for b_k, c_k in exps if b_k == b), default=0.0)


def tail_exponents(polys, r0, r_max):
    """The (b, c0) of trace_branches(polys, r0, r_max) without the trace: a
    branch is active when its pair holds the max on all of the tail radii, so
    only those are classified; r0 leads the solved radii, to be checked."""
    radii = np.append(r0, _tail(_radius_grid(r0, r_max)))
    pairs = _pairs(polys)
    if not pairs:
        return -math.inf, 0.0
    theta, col, i, j = _columns(pairs, radii)
    flags = _pair_active(polys, i, j, radii[1:, None] * np.exp(1j * theta[1:]))
    return _far_field(pairs, col, flags.all(axis=0))


def trace_branches(polys, r0, r_max):
    """Trace every branch of the equal-value locus from |z| = r0 out to
    |z| = r_max and assemble the summary (asymptotic exponents b, c0).

    r0 must exceed every root of every P_i - P_j, as ``regularity_radius``
    does, else ValueError. Each branch is sampled where it crosses the circles
    r0 * 1.01^k below r_max and the circle r_max; every sample is classified
    at once, and the point where a branch's dominance changes is inserted
    between the samples on either side of it. A branch is active when its pair
    holds the max on the last max(4, N/10) of the N circles (tail_exponents)."""
    polys = list(polys)
    radii = _radius_grid(r0, r_max)
    pairs = _pairs(polys)
    if not pairs:
        return LocusSummary(r0=r0, branches=[], b=-math.inf, c0=0.0)
    theta, col, i, j = _columns(pairs, radii)
    coeffs = stack([diff for _, _, diff in pairs])[col]
    points = radii[:, None] * np.exp(1j * theta)
    flags = _pair_active(polys, i, j, points)
    active = _tail(flags).all(axis=0)
    k, c = np.nonzero(flags[1:] != flags[:-1])
    ends = np.empty(0, complex)
    if k.size:
        ends = _transitions(polys, i[c], j[c], coeffs[c], radii[k], radii[k + 1],
                            theta[k, c], theta[k + 1, c], flags[k, c])
    branches = []
    for idx, p in enumerate(col):
        pi, pj, diff = pairs[p]
        cuts = k[c == idx] + 1
        pts = np.insert(points[:, idx], cuts, ends[c == idx])
        b_k, c_k = _branch_exponents(diff)
        branches.append(LocusBranch(
            pair=(pi, pj), diff=diff, points=pts, arclens=np.abs(np.diff(pts)),
            densities=np.abs(diff.deriv()(pts)) / TWO_PI,
            active_mask=np.insert(flags[:, idx], cuts, flags[cuts, idx]),
            b_k=b_k, c_k=c_k, active=bool(active[idx])))
    return LocusSummary(r0, branches, *_far_field(pairs, col, active))


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
    locus branches in the annulus r0 < |z| <= t."""
    if r0 is None:
        r0 = regularity_radius(polys)
    if t <= r0:
        raise ValueError("t must exceed r0")
    if summary is None:
        summary = trace_branches(polys, r0, t)
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
    count = sum(2 * int(diff.degree()) for _, _, diff in _pairs(polys))
    bound = math.ceil(2 * n * (n - 1) * (sigma + 1))
    return count, bound, count <= bound
