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

from .characteristic import characteristic_jensen, reduced_characteristic
from .curves import HolomorphicCurve, estimate_growth
from .errors import LocusEmptyError
from .locus import regularity_radius, tail_exponents, tied
from .polynomials import circle_sign_changes

HARVEST_SEEDS = 512        # scan angles per circle for the pairs with u_0
HARVEST_CAP = 400          # most tie points harvest_tie_points returns
TIE_TOL_FACTOR = 1e-6      # relative tolerance of a tie at the max for prop1
PROP2_SEEDS = 1024         # angles per circle for the sup of u - u*
TAIL_FRACTION = 0.25       # share of the largest radii checked by verify_theorem
SLACK = 0.1                # relative slack on the theorem's ceiling


def harvest_tie_points(curve: HolomorphicCurve, radii):
    """Points where two of the u_j (over the full index range 0..n) agree and
    jointly attain the maximum, found on circles, in the order radius, pair,
    angle. For i, j >= 1, u_i - u_j = Re(P_i - P_j) changes sign at
    polynomial roots; for the pairs with u_0, the sign changes on HARVEST_SEEDS
    angles of every circle are bisected all at once, each step evaluating u_0
    and the u_j of each bracket, until no bracket moves."""
    comps = curve.components
    first, second = np.triu_indices(len(comps), 1)
    radii = np.asarray(radii, dtype=float)
    theta = np.linspace(0.0, 2 * np.pi, HARVEST_SEEDS, endpoint=False)
    u = curve.compiled.log_moduli(radii[:, None] * np.exp(1j * theta))
    d = u[0] - u[1:]     # u_0 - u_j by j - 1, radius, angle
    d_next = np.roll(d, -1, axis=2)
    pair, k, s = np.nonzero(np.isfinite(d) & np.isfinite(d_next) & ((d > 0) != (d_next > 0)))
    a, b = theta[s], theta[s] + 2 * np.pi / HARVEST_SEEDS
    positive = d[pair, k, s] > 0
    ends = np.searchsorted(pair, np.arange(len(comps)))    # u_j's brackets: ends[j-1]:ends[j]
    for _ in range(60):
        mid = 0.5 * (a + b)
        z = radii[k] * np.exp(1j * mid)
        gap = comps[0].log_modulus(z)
        for j, part in enumerate(map(slice, ends[:-1], ends[1:]), 1):
            gap[part] -= comps[j].log_modulus(z[part])
        same = (gap > 0) == positive
        if not np.any(np.where(same, mid != a, mid != b)):
            break       # no bracket moves any more
        a, b = np.where(same, mid, a), np.where(same, b, mid)
    ks, pairs, angles = [k], [pair], [0.5 * (a + b)]
    # the pairs i, j >= 1 follow the pairs (0, j) in triu order
    for p in range(len(comps) - 1, len(first)):
        rows = circle_sign_changes(comps[first[p]].exponent - comps[second[p]].exponent, radii)
        ks.append(np.repeat(np.arange(len(radii)), [len(row) for row in rows]))
        pairs.append(np.full(ks[-1].size, p))
        angles.extend(rows)
    order = np.lexsort((np.concatenate(pairs), np.concatenate(ks)))
    pair = np.concatenate(pairs)[order]
    z = radii[np.concatenate(ks)[order]] * np.exp(1j * np.concatenate(angles)[order])
    top = tied(curve.compiled.log_moduli(z), 1e-7)
    cols = np.arange(z.size)
    return list(z[top[first[pair], cols] & top[second[pair], cols]][:HARVEST_CAP])


def prop1_check(curve: HolomorphicCurve, points):
    """Worst margin of (n+1)*||f'||(z) - |grad u_m - grad u_k| over the
    supplied tie points (inf for none); the gradient difference is
    |f_m'/f_m - f_k'/f_k|, maximised over the pairs tied for the max at z."""
    comps = curve.components
    z = np.asarray(points, dtype=complex)
    top = tied(curve.compiled.log_moduli(z), TIE_TOL_FACTOR)
    lone = np.flatnonzero(top.sum(axis=0) < 2)
    if lone.size:
        raise ValueError(f"point {z[lone[0]]!r} has no tied dominant pair")
    slopes = np.stack([c.log_derivative(z) for c in comps])
    m, k = np.triu_indices(len(comps), 1)
    grad_gap = np.where(top[m] & top[k], np.abs(slopes[m] - slopes[k]), -np.inf).max(axis=0)
    lhs = (curve.n + 1) * np.asarray(curve.spherical_derivative(z))
    return float(np.min(lhs - grad_gap, initial=math.inf))


def prop2_margin(curve: HolomorphicCurve, epsilon, radii):
    """Per-radius sup of u - u* on the circle against the explicit ceiling
    K*(2+eps)^{sigma+1}*(n+1)*r^{sigma+1}, all radii on one grid of
    PROP2_SEEDS angles. Returns a list of (r, sup, bound) rows."""
    if curve.K is None:
        raise ValueError("curve needs K declared or estimated")
    radii = np.asarray(radii, dtype=float)
    z = radii[:, None] * np.exp(1j * np.linspace(0.0, 2 * np.pi, PROP2_SEEDS, endpoint=False))
    # log|f_j| = Re P_j for j >= 1, where g_j = 1
    u_star = curve.compiled.log_moduli(z)[1:].max(axis=0)
    sups = np.max(curve.u(z) - u_star, axis=1)
    scale = curve.K * (2 + epsilon) ** (curve.sigma + 1) * (curve.n + 1)
    return [(float(r), float(sup), scale * float(r) ** (curve.sigma + 1))
            for r, sup in zip(radii, sups)]


def prop3_check(far, curve: HolomorphicCurve):
    """Asymptotic ceilings b <= sigma and c0 <= 3*4^sigma*K*(n+1) on the
    locus's far-field exponents ``far = (b, c0)``, None for an empty locus."""
    if curve.K is None:
        raise ValueError("curve needs K declared or estimated")
    b, c0 = (-math.inf, 0.0) if far is None else far
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


def theorem_constant(n, sigma, epsilon=0.01):
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
        }, sort_keys=True, indent=2)


def verify_theorem(curve: HolomorphicCurve, r_grid, epsilon=0.01, tol=1e-8):
    """Run every sub-check and the tail inequality
    T(r) <= K*C(n,sigma)*r^{sigma+1}*(1+SLACK) on the largest radii of the
    grid. Sub-check failures are recorded as false verdicts; the operation
    itself does not abort. prop1 reads the tie points harvested on every
    (N // 6)-th of the N grid radii; prop3 reads the locus's far field on the
    tail of the trace radii from r0 to max(4*r0, max(r_grid)), without a trace."""
    r_grid = sorted(float(r) for r in r_grid)
    work = curve
    if work.K is None:
        _, k_hat = estimate_growth(work, max(r_grid[0], 1.0), r_grid[-1], circles=8)
        work = work.with_K(max(k_hat, 1e-12))
    sigma, K, n = work.sigma, work.K, work.n

    polys = work.reduced_polys()
    try:
        r0 = regularity_radius(polys)
        far = tail_exponents(polys, r0, max(4 * r0, r_grid[-1]))
    except LocusEmptyError:
        far = None

    prop1_worst = prop1_check(work, harvest_tie_points(work, r_grid[:: max(1, len(r_grid) // 6)]))

    rows2 = prop2_margin(work, epsilon, r_grid)
    tail_start = int(math.floor(len(r_grid) * (1 - TAIL_FRACTION)))
    prop2_tail_ok = all(sup <= bound for _, sup, bound in rows2[tail_start:])

    p3 = prop3_check(far, work)

    tail = np.asarray(r_grid[tail_start:])
    t_star = reduced_characteristic(work, tail)
    prop4_margin = float(np.min(prop4_bound(n, sigma, K, tail) - t_star))

    const = theorem_constant(n, sigma, epsilon)
    tail_rows = [(r, t, K * const * r ** (sigma + 1) * (1 + SLACK))
                 for r, t in zip(tail.tolist(), characteristic_jensen(work, tail, tol).tolist())]
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
        tail_rows=tail_rows, verdicts=verdicts)
