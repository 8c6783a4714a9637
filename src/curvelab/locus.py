"""Equal-value locus of max_j Re P_j outside a computed regularity radius.

For polynomial exponents the locus E splits into pair loci {Re(P_i - P_j) = 0}
whose far branches converge to the 2*deg asymptotic rays of each difference.
Branches are traced by predictor-corrector continuation from their crossings
with the circle |z| = r0; along each branch the jump density J/2pi with
J = |(P_i - P_j)'| accumulates the Riesz measure of the max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymptoticsError, ContinuationError, LocusEmptyError
from .polynomials import ComplexPoly, cauchy_fraction, circle_sign_changes

TWO_PI = 2 * math.pi


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
    keep = _distinct_indices(polys)
    out = []
    for a in range(len(keep)):
        for b in range(a + 1, len(keep)):
            i, j = keep[a], keep[b]
            diff = polys[i] - polys[j]
            if not diff.is_constant():
                out.append((i, j, diff))
    return out


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
    b_k: float = 0.0
    c_k: float = 0.0
    active: bool = False


@dataclass
class LocusSummary:
    r0: float
    branches: list
    b: float
    c0: float


def _residual_scale(diff, z):
    return 1e-12 * (1.0 + abs(z) ** max(int(diff.degree()), 1) * abs(diff.leading))


def _correct(diff, dd, z, pair):
    """Newton steps back onto Re diff = 0 along the gradient direction."""
    for _ in range(30):
        res = float(diff(z).real)
        if abs(res) <= _residual_scale(diff, z):
            return z
        grad = np.conj(dd(z))
        g2 = abs(grad) ** 2
        if g2 == 0.0:
            raise ContinuationError(pair, z, "vanishing gradient")
        z = z - res * grad / g2
    raise ContinuationError(pair, z, "corrector did not converge")


def tied(values, rel):
    """Mask of the rows of ``values`` that attain the column max up to
    rel * (1 + |max|): which of the functions tie for the max at each point."""
    vmax = values.max(axis=0)
    return values >= vmax - rel * (1.0 + np.abs(vmax))


def _pair_active(polys, i, j, z):
    """Whether the larger of Re P_i, Re P_j attains max_k Re P_k at z (a point
    or an array of points); a point of pair (i, j) off by a corrector
    residual is still active when either member holds the max."""
    top = tied(np.stack([np.asarray(p(z)).real for p in polys]), 1e-8)
    return top[i] | top[j]


def _transition(polys, pair, diff, dd, a, b, flag):
    """Point of the traced arc from a to b where the pair's dominance stops
    being ``flag``, by bisection of the chord with each probe corrected."""
    lo, hi = 0.0, 1.0
    chord = b - a
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        zm = _correct(diff, dd, a + mid * chord, pair)
        if _pair_active(polys, *pair, zm) == flag:
            lo = mid
        else:
            hi = mid
    return _correct(diff, dd, a + 0.5 * (lo + hi) * chord, pair)


def _trace_branch(polys, i, j, diff, z_start, r_max, step_frac):
    dd = diff.deriv()
    pair = (i, j)
    z = _correct(diff, dd, z_start, pair)
    steps = [z]
    direction = None
    while abs(z) < r_max:
        grad = np.conj(dd(z))
        tangent = 1j * grad / abs(grad)
        if direction is None:
            # choose the outward orientation at the circle crossing
            if (np.conj(z) * tangent).real < 0:
                tangent = -tangent
        elif (np.conj(direction) * tangent).real < 0:
            tangent = -tangent
        h = abs(z) * step_frac
        z_new = None
        for _ in range(40):
            try:
                cand = _correct(diff, dd, z + h * tangent, pair)
            except ContinuationError:
                h *= 0.5
                continue
            if abs(cand - z) <= 2.0 * h:
                z_new = cand
                break
            h *= 0.5
        if z_new is None:
            raise ContinuationError(pair, z, "step size underflow")
        direction = z_new - z
        z = z_new
        steps.append(z)
    # classify all steps at once, then insert the dominance transition
    # between each pair of consecutive steps whose classes differ
    steps = np.asarray(steps)
    flags = _pair_active(polys, i, j, steps)
    cuts = np.flatnonzero(flags[1:] != flags[:-1]) + 1
    ends = [_transition(polys, pair, diff, dd, steps[k - 1], steps[k], flags[k - 1]) for k in cuts]
    pts = np.insert(steps, cuts, ends)
    branch = LocusBranch(
        pair=pair,
        diff=diff,
        points=pts,
        arclens=np.abs(np.diff(pts)),
        densities=np.abs(dd(pts)) / TWO_PI,
        active_mask=np.insert(flags, cuts, flags[cuts]),
    )
    deg = int(diff.degree())
    branch.b_k = float(deg - 1)
    branch.c_k = deg * abs(diff.leading) / TWO_PI
    branch.active = bool(np.all(branch.active_mask[-max(4, len(pts) // 10):]))
    return branch


def trace_branches(polys, r0, r_max, step_frac=0.01):
    """Trace every branch of the equal-value locus from |z| = r0 out to
    |z| = r_max and assemble the summary (asymptotic exponents b, c0)."""
    polys = list(polys)
    if r_max <= r0:
        raise ValueError("r_max must exceed r0")
    branches = []
    for i, j, diff in _pairs(polys):
        for theta in circle_sign_changes(diff, r0):
            z_start = r0 * np.exp(1j * theta)
            branches.append(_trace_branch(polys, i, j, diff, z_start, r_max, step_frac))
    active = [br for br in branches if br.active]
    if active:
        b = max(br.b_k for br in active)
        c0 = max(br.c_k for br in active if br.b_k == b)
    else:
        b, c0 = -math.inf, 0.0
    return LocusSummary(r0=r0, branches=branches, b=b, c0=c0)


def branch_asymptotics(branch: LocusBranch, b_gate=0.05, c_gate=0.05):
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
    if abs(slope - branch.b_k) > b_gate or abs(c_fit - branch.c_k) > c_gate * branch.c_k:
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
        for k in range(len(pts) - 1):
            if not (act[k] and act[k + 1]):
                continue
            ra, rb = abs(pts[k]), abs(pts[k + 1])
            if rb <= r0 or ra > t:
                continue
            seg = abs(pts[k + 1] - pts[k])
            mean_d = 0.5 * (dens[k] + dens[k + 1])
            frac = 1.0
            if rb > t and rb > ra:
                frac = (t - ra) / (rb - ra)
            total += mean_d * seg * frac
    return total


def count_branch_bound(polys, sigma):
    """Asymptotic ray count of the locus against the 2n(n-1)(sigma+1) cap."""
    polys = list(polys)
    n = len(polys)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            diff = polys[i] - polys[j]
            if not diff.is_constant():
                count += 2 * int(diff.degree())
    bound = math.ceil(2 * n * (n - 1) * (sigma + 1))
    return count, bound, count <= bound
