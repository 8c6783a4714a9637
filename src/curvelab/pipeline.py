"""End-to-end verification of the growth bound T(r) <= K * C(n, sigma) * r^{sigma+1}
for curves omitting the n coordinate hyperplanes, assembled from four
sub-checks: the tie-point gradient inequality, the distance of u from the
reduced max u*, the asymptotic ceilings on the locus jump densities, and the
reduced-characteristic bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .characteristic import (DEFAULT_TOL, characteristic_jensen, circle_rows, reduced_characteristic_polys,
                             switch_points)
from .curves import HolomorphicCurve, _logsumexp, estimate_growth
from .locus import regularity_radius, tied, trace_branches
from .polynomials import circle_sign_changes, leading_hull, on_circles

DEFAULT_EPSILON = 0.01     # slack in the distance constant (2+epsilon)^{sigma+1}
TIE_TOL_FACTOR = 1e-6      # relative tolerance of a tie at the max for prop1
TAIL_FRACTION = 0.25       # share of the largest radii checked by verify_theorem
SLACK = 0.1                # relative slack on the theorem's ceiling


def harvest_tie_points(curve: HolomorphicCurve, radii):
    """The switch_points on the circles |z| = radii: every point where two of
    the u_j (over the full index range 0..n) agree and jointly attain the
    maximum, in the order radius, pair, angle."""
    return list(switch_points(curve, radii)[1])


def prop1_check(curve: HolomorphicCurve, points):
    """Worst margin of (n+1)*||f'||(z) - |grad u_m - grad u_k| over the
    supplied tie points (inf for none); the gradient difference is
    |f_m'/f_m - f_k'/f_k|, maximised over the pairs tied for the max at z."""
    z = np.asarray(points, dtype=complex)
    top = tied(curve.compiled.log_moduli(z), TIE_TOL_FACTOR)
    lone = np.flatnonzero(top.sum(axis=0) < 2)
    if lone.size:
        raise ValueError(f"point {z[lone[0]]!r} has no tied dominant pair")
    slopes = curve.compiled.log_derivatives(z)
    m, k = np.triu_indices(curve.n + 1, 1)
    grad_gap = np.where(top[m] & top[k], np.abs(slopes[m] - slopes[k]), -np.inf).max(axis=0)
    lhs = (curve.n + 1) * np.asarray(curve.spherical_derivative(z))
    return float(np.min(lhs - grad_gap, initial=math.inf))


def prop2_margin(curve: HolomorphicCurve, epsilon, radii, rows=None):
    """Per-radius sup of u - u* on the circle against the explicit ceiling
    K*(2+eps)^{sigma+1}*(n+1)*r^{sigma+1}, all radii on one grid of
    PROP2_SEEDS angles (its circle_rows ``rows``, if handed in). Returns (r, sup, bound) rows."""
    if curve.K is None:
        raise ValueError("curve needs K declared or estimated")
    # u and u* from one kernel pass; log|f_j| = Re P_j for j >= 1, where g_j = 1
    rows = circle_rows(curve, radii) if rows is None else rows
    sups = np.max(0.5 * _logsumexp(2.0 * rows) - rows[1:].max(axis=0), axis=1)
    scale = curve.K * (2 + epsilon) ** (curve.sigma + 1) * (curve.n + 1)
    return [(float(r), float(sup), scale * float(r) ** (curve.sigma + 1))
            for r, sup in zip(radii, sups)]


def prop3_check(far, curve: HolomorphicCurve):
    """Asymptotic ceilings b <= sigma and c0 <= 3*4^sigma*K*(n+1) on the locus's
    far field ``far = (b, c0)`` (see verify_theorem), (-inf, 0) for an empty locus."""
    if curve.K is None:
        raise ValueError("curve needs K declared or estimated")
    b, c0 = far
    c0_ceiling = 3.0 * 4 ** curve.sigma * curve.K * (curve.n + 1)
    verdict_b = b <= curve.sigma + 1e-6
    verdict_c0 = c0 <= c0_ceiling * (1 + 1e-6)
    return {
        "b": b, "b_ceiling": curve.sigma,
        "c0": c0, "c0_ceiling": c0_ceiling,
        "verdict_b": bool(verdict_b), "verdict_c0": bool(verdict_c0),
    }


def prop4_bound(n, sigma, K, r):
    """Explicit ceiling 6*4^sigma*K*n(n+1)^2/(sigma+1) * r^{sigma+1} for the
    reduced characteristic. (The radius power is restored from the proof; the
    bound is unusable for unbounded T* without it.)"""
    return 6.0 * 4 ** sigma * K * n * (n + 1) ** 2 / (sigma + 1) * r ** (sigma + 1)


def theorem_constant(n, sigma, epsilon=DEFAULT_EPSILON):
    """C(n, sigma): the reduced-characteristic constant plus the u-vs-u*
    distance constant, so that T(r) <~ K*C(n,sigma)*r^{sigma+1}."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return (6.0 * 4 ** sigma * n * (n + 1) ** 2 / (sigma + 1)
            + (2 + epsilon) ** (sigma + 1) * (n + 1))


@dataclass
class BoundReport:
    sigma: float
    K: float
    epsilon: float
    prop1_worst: float
    prop2_rows: list
    prop3: dict
    prop4_margin: float
    theorem_constant: float
    tail_rows: list            # (r, T_jensen, ceiling)
    verdicts: dict = field(default_factory=dict)
    K_radii: list | None = None   # the circles K was read on; None where the curve declares K

    @property
    def all_true(self):
        return all(self.verdicts.values())

    def to_json(self):
        return json.dumps({
            "sigma": self.sigma,
            "K": self.K,
            "epsilon": self.epsilon,
            "prop1_worst": self.prop1_worst,
            "prop2_rows": [list(map(float, row)) for row in self.prop2_rows],
            "prop3": self.prop3,
            "prop4_margin": self.prop4_margin,
            "theorem_constant": self.theorem_constant,
            "tail_rows": [list(map(float, row)) for row in self.tail_rows],
            "verdicts": self.verdicts,
            "K_radii": self.K_radii,
        }, sort_keys=True, indent=2)


def verify_theorem(curve: HolomorphicCurve, r_grid, epsilon=DEFAULT_EPSILON, tol=DEFAULT_TOL):
    """Run every sub-check and the tail inequality
    T(r) <= K*C(n,sigma)*r^{sigma+1}*(1+SLACK) on the largest radii of the
    grid. Sub-check failures are recorded as false verdicts; the operation
    itself does not abort. One circle_sign_changes and one switch_points solve
    on every (N // 6)-th of the N grid radii and on the tail serve K (where the
    curve omits it, read by estimate_growth on those circles with r >= 1, or
    on all of them for a grid inside the unit disk), prop1's tie points, T*
    and the Jensen route of T, and one circle_rows pass serves prop2 and the
    switch scan; prop3 reads the locus's far field off the hull of the top
    coefficients (leading_hull), or, where lower-order terms decide it, off
    the trace from r0 to max(4*r0, max(r_grid)) (trace_branches)."""
    r_grid = sorted(float(r) for r in r_grid)
    if not r_grid or (curve.K is None and r_grid[0] == r_grid[-1]):
        raise ValueError("empty r_grid" if not r_grid else "declare K or pass two distinct radii")
    polys = curve.reduced_polys()
    step, tail_start = max(1, len(r_grid) // 6), int(math.floor(len(r_grid) * (1 - TAIL_FRACTION)))
    solved = np.union1d(np.arange(0, len(r_grid), step), np.arange(tail_start, len(r_grid)))
    radii = np.asarray(r_grid)[solved]
    grid = circle_rows(curve, r_grid)
    changes = circle_sign_changes(polys, radii)
    switches = switch_points(curve, radii, changes, grid[:, solved, ::2])

    work, K_radii = curve, None
    if curve.K is None:
        read = np.flatnonzero(radii >= 1.0) if r_grid[-1] > 1.0 else np.arange(radii.size)   # circles from r = 1 on
        K_radii = radii[read].tolist()
        work = curve.with_K(max(estimate_growth(curve, radii[read], on_circles(switches, read)), 1e-12))
    sigma, K, n = work.sigma, work.K, work.n

    far = leading_hull(polys)
    if far is None:
        summary = trace_branches(polys, r0 := regularity_radius(polys), max(4 * r0, r_grid[-1]))
        far = summary.b, summary.c0

    prop1_worst = prop1_check(work, on_circles(switches, np.flatnonzero(solved % step == 0))[1])

    rows2 = prop2_margin(work, epsilon, r_grid, grid)
    prop2_tail_ok = all(sup <= bound for _, sup, bound in rows2[tail_start:])

    p3 = prop3_check(far, work)

    on_tail = np.flatnonzero(solved >= tail_start)
    tail = radii[on_tail]
    t_star = reduced_characteristic_polys(polys, tail, on_circles(changes, on_tail, at=1))
    prop4_margin = float(np.min(prop4_bound(n, sigma, K, tail) - t_star))

    const = theorem_constant(n, sigma, epsilon)
    t_jensen = characteristic_jensen(work, tail, tol, on_circles(switches, on_tail)).tolist()
    tail_rows = [(r, t, K * const * r ** (sigma + 1) * (1 + SLACK)) for r, t in zip(tail.tolist(), t_jensen)]
    theorem_ok = all(t <= ceiling for _, t, ceiling in tail_rows)

    scale = 1.0 + max(abs(v) for v in ([prop1_worst] if np.isfinite(prop1_worst) else [0.0]))
    verdicts = {
        "prop1": bool(prop1_worst >= -1e-8 * scale),
        "prop2": bool(prop2_tail_ok),
        "prop3": bool(p3["verdict_b"] and p3["verdict_c0"]),
        "prop4": bool(prop4_margin >= -1e-8),
        "theorem": bool(theorem_ok),
    }
    return BoundReport(
        sigma=sigma, K=K, epsilon=epsilon,
        prop1_worst=prop1_worst, prop2_rows=rows2, prop3=p3,
        prop4_margin=prop4_margin, theorem_constant=const,
        tail_rows=tail_rows, verdicts=verdicts, K_radii=K_radii)
