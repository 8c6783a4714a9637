"""Nevanlinna-Cartan characteristic by two independent routes.

Area route: T(r) = int_0^r n(t)/t dt with n(t) = (1/pi) * integral of the
squared spherical derivative over |z| <= t; after swapping the order of
integration this is a single radial integral of s*log(r/s)*A(s)/pi where A(s)
is the angular integral on the circle of radius s. Both radial integrals run
in t = sqrt(s/r) on [0, 1] (s ds = 2 r^2 t^3 dt): in s the log weight is not
smooth at s = 0 and the adaptive panels piled up there, while in t the area
weight 4 r^2 t^3 (-log t) is smooth enough that they do not.

Jensen route: T(r) = circle average of u = log||f|| minus u(0). No zero
correction term is needed even when f_0(0) = 0, because u itself (not
log|f_0|) is averaged and the norm is always >= 1.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .curves import HolomorphicCurve
from .locus import tied
from .polynomials import circle_arcs, circle_sign_changes, horner, on_circles, stack
from .quadrature import N_START, _trapezoid_levels, adaptive_gauss, kronrod_panels, periodic_trapezoid

DEFAULT_TOL = 1e-8
CROSS_CHECK_TOL = 1e-6   # largest gap build_table allows between the two routes
JENSEN_HANDOVER = 1024   # most trapezoid angles a Jensen circle runs before it goes to panels
SWITCH_GRADING = 4   # ratio of successive panel breakpoint offsets from a switch angle
SWITCH_LAYER = 0.5   # the first offset, over the slope of the pair's gap there
# Rungs of each switch's ladder, 1 + ceil(log_4(-ln(eps) / SWITCH_LAYER)): the
# last, 4^4 h = 128/s, is the first past -ln(eps)/s, from where the tie's kink
# (1/2) log(1 + e^{-2s|theta - theta*|}) is below rounding.
SWITCH_LEVELS = 5
PROP2_SEEDS = 1024   # angles per circle of verify_theorem's grid, where prop2 reads u - u*
HARVEST_SEEDS = PROP2_SEEDS // 2   # switch_points' scan: the grid's even angles, to the bit


def _checked_radii(r):
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all((radii > 0) & np.isfinite(radii)):
        raise ValueError("radius must be positive and finite")
    return radii


def _per_radius(r, values):
    """values, one per radius, as a float for a number r."""
    return float(values[0]) if np.ndim(r) == 0 else values


def _disk_integrals(curve: HolomorphicCurve, radii, tol):
    """(T_area, n) at each radius r in radii: (1/pi) int_0^r s w A(s) ds with
    w = 2 log(r/s) and w = 1, both from one adaptive pass in t = sqrt(s/r)
    per radius. A(s), the integral over theta of ||f'||^2(s e^{i theta}), is
    read on all circles r t^2 of a refinement level by one periodic_trapezoid call."""
    radii = _checked_radii(radii)
    sd = curve.spherical_derivative

    def energy(s):
        return periodic_trapezoid(lambda z: sd(z, squared=True), s, min(tol, 1e-9))

    out = np.empty((radii.size, 2))
    for k, r in enumerate(radii.tolist()):
        def integrand(t):
            weight, a = 2 * r * r * t ** 3, energy(r * t * t)
            return np.stack([weight * (-2 * np.log(t)) * a, weight * a], axis=1)
        out[k] = adaptive_gauss(integrand, 0.0, 1.0, tol) / math.pi
    return out[:, 0], out[:, 1]


def characteristic_jensen(curve: HolomorphicCurve, r, tol=DEFAULT_TOL, switches=None):
    """Circle average of u minus u(0), for a number r or elementwise for an
    array of radii.

    The periodic trapezoid runs up to JENSEN_HANDOVER angles. Circles it has
    not settled by then, with ties sharper than the grid, finish on
    Gauss-Kronrod panels in theta graded from their switch angles
    (_graded_panels), with the tie guard of _tie_guarded_u, to the
    trapezoid's tolerance relative to its last estimate. ``switches`` (the
    radii's switch_points, if handed in) spare that solve and send the sharp
    circles to the panels first; without them the trapezoid's false stops stay.
    """
    radii = _checked_radii(r)
    caps = np.full(radii.size, JENSEN_HANDOVER)
    if switches is not None:
        # A tie of slope s kinks u by (1/2) log(1 + e^{-2s|theta - theta*|}), analytic in a strip of half-width
        # pi/(2s) only, so N angles err by about e^{-pi N/(2s)} (Trefethen and Weideman, SIAM Review 56, 2014):
        # past s = JENSEN_HANDOVER pi/(2 ln(1/tol)), 87.3 at tol = 1e-8, no level settles it (none for tol >= 1)
        circle, _, s = switches = _with_slopes(curve, switches)
        caps[circle[np.isfinite(s) & (2 * s * math.log(1 / tol) > JENSEN_HANDOVER * math.pi)]] = N_START
    integrals, _, running = _trapezoid_levels(curve.u, radii, tol, caps)
    if running.size:
        switches = (_with_slopes(curve, switch_points(curve, radii[running])) if switches is None
                    else on_circles(switches, running))
        circle, lo, hi = _graded_panels(switches, running.size)
        # |z| = r is the image of the segment from -i log r to 2pi - i log r under z = e^{ix}
        a = -1j * np.log(radii[running])
        integrals[running] = kronrod_panels(
            _tie_guarded_u(curve), a, circle, lo + a[circle], hi + a[circle],
            tol * np.maximum(1.0, np.abs(integrals[running])))
    return _per_radius(r, integrals / (2 * np.pi) - curve.u(0.0))


def _with_slopes(curve: HolomorphicCurve, switches):
    """switch_points' (circle, z, pair) as (circle, z, s), s = |d(u_i - u_j)/dtheta| of the tied pair."""
    circle, z, pair = switches
    first, second = np.triu_indices(curve.n + 1, 1)
    slopes, cols = curve.compiled.log_derivatives(z), np.arange(z.size)
    return circle, z, np.abs((z * (slopes[first[pair], cols] - slopes[second[pair], cols])).imag)


def circle_rows(curve: HolomorphicCurve, radii, count=PROP2_SEEDS):
    """log_moduli rows on ``count`` angles of each circle |z| = radii, (n + 1, radii, count)."""
    theta = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
    return curve.compiled.log_moduli(np.asarray(radii, dtype=float)[:, None] * np.exp(1j * theta))


def switch_points(curve: HolomorphicCurve, radii, changes=None, scan=None):
    """(circle, z, pair) for every point z on the circles |z| = radii[circle]
    where two of the u_j (over the full index range 0..n, pair indexing
    np.triu_indices) agree and jointly attain the maximum, in the order
    radius, pair, angle. For i, j >= 1, u_i - u_j = Re(P_i - P_j) changes
    sign at polynomial roots (``changes``, their circle_sign_changes on the
    radii, if handed in); for the pairs with u_0, the sign changes of u_0 - u_j
    on HARVEST_SEEDS angles of every circle (their log_moduli rows ``scan``, if
    handed in) are refined all at once by safeguarded Newton steps (README)."""
    first, second = np.triu_indices(curve.n + 1, 1)
    radii = np.asarray(radii, dtype=float)
    theta = np.linspace(0.0, 2 * np.pi, HARVEST_SEEDS, endpoint=False)
    u = circle_rows(curve, radii, HARVEST_SEEDS) if scan is None else scan
    d = u[0] - u[1:]     # u_0 - u_j by j - 1, radius, angle
    d_next = np.roll(d, -1, axis=2)
    pair, k, s = np.nonzero(np.isfinite(d) & np.isfinite(d_next) & ((d > 0) != (d_next > 0)))
    a, b = theta[s], theta[s] + 2 * np.pi / HARVEST_SEEDS
    gap_a, gap_b = d[pair, k, s], d_next[pair, k, s]
    t, run = a + (b - a) * gap_a / (gap_a - gap_b), np.arange(pair.size)   # from the secant points
    for _ in range(60):
        if not run.size:
            break
        z = radii[k[run]] * np.exp(1j * t[run])
        rows, slopes = curve.compiled.log_moduli(z), curve.compiled.log_derivatives(z)
        j = (pair[run] + 1, np.arange(run.size))
        gap = rows[0] - rows[j]
        same = (gap > 0) == (gap_a[run] > 0)
        a[run], b[run] = lo, hi = np.where(same, t[run], a[run]), np.where(same, b[run], t[run])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = gap / -(z * (slopes[0] - slopes[j])).imag
        step[np.abs(gap) <= 4 * np.finfo(float).eps * (1 + np.abs(rows[0]))] = 0.0
        end = np.clip(t[run] - step, lo, hi)    # a step out of the bracket bisects, unless out by rounding
        t[run] = np.where(np.abs(end - (t[run] - step)) <= 1e-14, end, 0.5 * (lo + hi))
        run = run[~(np.abs(step) <= 1e-14)]
    # the pairs i, j >= 1 follow the n pairs (0, j) in triu order
    p, kp, angles = circle_sign_changes(curve.reduced_polys(), radii) if changes is None else changes
    k, pair = np.append(k, kp), np.append(pair, p + curve.n)
    order = np.lexsort((pair, k))
    circle, pair = k[order], pair[order]
    z = radii[circle] * np.exp(1j * np.append(t, angles)[order])
    top, cols = tied(curve.compiled.log_moduli(z), 1e-7), np.arange(z.size)
    switch = top[first[pair], cols] & top[second[pair], cols]
    return circle[switch], z[switch], pair[switch]


def _graded_panels(switches, count):
    """(circle, lo, hi): panels [lo, hi] in theta that cut each of ``count``
    circles at 0, pi/2, pi and 3pi/2, at its ``switches`` (circle, z, s of
    _with_slopes) theta* and at theta* +- h 4^m below pi, m < SWITCH_LEVELS,
    with h = SWITCH_LAYER / s for the slope s of the tied pair there. u is
    smooth off the switches, with its singularities about pi/(2s) off the
    circle, so graded panels reach rounding without a search (Trefethen,
    ATAP ch. 19). A slope of 0 or one that is not finite grades nothing."""
    circle, z, s = switches
    theta, graded = np.mod(np.angle(z), 2 * np.pi), np.isfinite(s) & (s > 0)
    offsets = (SWITCH_LAYER / s[graded])[:, None] * float(SWITCH_GRADING) ** np.arange(SWITCH_LEVELS)
    row, m = np.nonzero(offsets < np.pi)
    near, offsets = theta[graded][row], offsets[row, m]
    at = np.concatenate([np.repeat(np.arange(count), 3), circle, np.tile(circle[graded][row], 2)])
    cuts = np.concatenate([np.tile(np.arange(1, 4) * (0.5 * np.pi), count), theta,
                           np.mod(np.concatenate([near - offsets, near + offsets]), 2 * np.pi)])
    return circle_arcs(at, cuts, count)


def _tie_guarded_u(curve: HolomorphicCurve):
    """u(e^{ix}) at the nodes of each panel row x, and the panel's tie guard:
    its 17 points share one winning row of log_moduli, or exactly two whose gap
    changes by at most 1 across it, so the panel is narrower than the layer
    where u turns from one winner to the other. Without it, a switch past the
    outermost node, or two rules agreeing by chance around an interior switch,
    passes the error test."""
    def integrand(x):
        rows = curve.compiled.log_moduli(np.exp(1j * x))     # (n + 1, panels, 17)
        top = rows.max(axis=0)
        shifted = rows - top                                 # 0 where a row wins
        wins = (shifted == 0.0).any(axis=2)                  # (n + 1, panels)
        first, last = wins.argmax(axis=0), len(wins) - 1 - wins[::-1].argmax(axis=0)
        panel = np.arange(len(top))
        gap = shifted[first, panel] - shifted[last, panel]
        accept = (wins.sum(axis=0) <= 2) & (gap.max(axis=1) - gap.min(axis=1) <= 1.0)
        return (top + 0.5 * np.log(np.exp(2.0 * shifted).sum(axis=0)))[:, 1:-1], accept
    return integrand


def characteristic_area(curve: HolomorphicCurve, r, tol=DEFAULT_TOL):
    """Logarithmic area integral of the squared spherical derivative, for a
    number r or elementwise for an array of radii."""
    return _per_radius(r, _disk_integrals(curve, r, tol)[0])


def counting_function(curve: HolomorphicCurve, t, tol=DEFAULT_TOL):
    """n(t): total mass of the Riesz (Cartan) measure in |z| <= t, for a
    number t or elementwise for an array of radii."""
    return _per_radius(t, _disk_integrals(curve, t, tol)[1])


# -- reduced curve ------------------------------------------------------------

def circle_mean_max_re(polys, r, changes=None):
    """(1/2pi) * integral over theta of max_j Re P_j(r e^{i theta}), for a
    number r or elementwise for an array of radii.

    The arg-max can switch only where some Re(P_i - P_j) changes sign, so
    those angles (``changes`` from the caller, or one circle_sign_changes
    call for all pairs and radii) cut each circle into arcs (circle_arcs)
    with one winner each, read at the arc midpoint, and all arcs are
    integrated in closed form at once.
    """
    polys = list(polys)
    radii = _checked_radii(r)
    k, a, b = circle_arcs(*(circle_sign_changes(polys, radii) if changes is None else changes)[1:], len(radii))
    rk = radii[k]
    coeffs = stack(polys)
    c = coeffs[np.argmax(horner(coeffs, rk * np.exp(0.5j * (a + b))).real, axis=0)]
    # integral of Re sum_m c_m r^m e^{i m theta} over [a, b]
    arcs = (c[:, 0] * (b - a)).real
    for m in range(1, coeffs.shape[1]):
        arcs += (c[:, m] * rk ** m * (np.exp(1j * m * b) - np.exp(1j * m * a)) / (1j * m)).real
    return _per_radius(r, np.bincount(k, weights=arcs, minlength=len(radii)) / (2 * np.pi))


def reduced_characteristic(curve: HolomorphicCurve, r):
    """T*(r): circle average of u* = max_{1<=j<=n} Re P_j minus u*(0), in
    closed form, for a number r or elementwise for an array of radii."""
    return reduced_characteristic_polys(curve.reduced_polys(), r)


def reduced_characteristic_polys(polys, r, changes=None):
    return circle_mean_max_re(polys, r, changes) - float(stack(polys)[:, 0].real.max())


# -- tables -------------------------------------------------------------------

@dataclass
class CharacteristicTable:
    radii: list
    T_area: list
    T_jensen: list
    n_counting: list

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["r", "T_area", "T_jensen", "n_t"])
        for row in zip(self.radii, self.T_area, self.T_jensen, self.n_counting):
            writer.writerow([repr(float(v)) for v in row])
        return buf.getvalue()

    def to_json(self):
        return json.dumps({
            "radii": [float(v) for v in self.radii],
            "T_area": [float(v) for v in self.T_area],
            "T_jensen": [float(v) for v in self.T_jensen],
            "n_counting": [float(v) for v in self.n_counting],
        }, sort_keys=True, indent=2)


def build_table(curve: HolomorphicCurve, radii, tol=DEFAULT_TOL):
    radii = sorted(float(r) for r in radii)
    t_area, counting = _disk_integrals(curve, radii, tol)
    t_jensen = characteristic_jensen(curve, np.array(radii), tol)
    for r, ta, tj in zip(radii, t_area.tolist(), t_jensen.tolist()):
        if abs(ta - tj) > CROSS_CHECK_TOL:
            raise RuntimeError(
                f"characteristic routes disagree at r={r}: "
                f"area={ta!r}, jensen={tj!r}")
    return CharacteristicTable(radii, t_area.tolist(), t_jensen.tolist(), counting.tolist())
