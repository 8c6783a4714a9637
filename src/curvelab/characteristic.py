"""Nevanlinna-Cartan characteristic by two independent routes.

Area route: T(r) = int_0^r n(t)/t dt with n(t) = (1/pi) * integral of the
squared spherical derivative over |z| <= t; after swapping the order of
integration this is a single radial integral of s*log(r/s)*A(s)/pi where A(s)
is the angular integral on the circle of radius s.

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
from .polynomials import ComplexPoly
from .quadrature import adaptive_gauss, periodic_trapezoid

DEFAULT_TOL = 1e-8


class AngularEnergy:
    """A(s) = integral over theta of ||f'||^2(s e^{i theta}), memoised by
    node so that radial integrals over the same curve share their circles.

    The nodes not yet known go to one batched periodic trapezoid.
    """

    def __init__(self, curve: HolomorphicCurve, tol):
        self.curve = curve
        self.tol = min(tol, 1e-9)
        self._values = {}

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        todo = np.array(sorted({v for v in s.tolist() if v > 0 and v not in self._values}))
        if todo.size:
            def integrand(theta):
                rows = getattr(theta, "rows", slice(None))
                z = todo[rows, None] * np.exp(1j * theta)
                return np.asarray(self.curve.spherical_derivative(z)) ** 2

            self._values.update(zip(todo.tolist(), periodic_trapezoid(integrand, self.tol)))
        return np.array([self._values.get(v, 0.0) for v in s.tolist()])


def _energy(curve, tol):
    return curve if isinstance(curve, AngularEnergy) else AngularEnergy(curve, tol)


def characteristic_jensen(curve: HolomorphicCurve, r, tol=DEFAULT_TOL):
    """Circle average of u minus u(0)."""
    if r <= 0:
        raise ValueError("radius must be positive")
    mean = periodic_trapezoid(
        lambda th: np.asarray(curve.u(r * np.exp(1j * th))), tol) / (2 * np.pi)
    return mean - curve.u(0.0)


def characteristic_area(curve: HolomorphicCurve | AngularEnergy, r, tol=DEFAULT_TOL):
    """Logarithmic area integral of the squared spherical derivative.

    ``curve`` is a HolomorphicCurve, or an AngularEnergy of one to share its
    A(s) values with other radial integrals; its own tolerance then governs
    A(s).
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    energy = _energy(curve, tol)

    def integrand(s):
        with np.errstate(divide="ignore", invalid="ignore"):
            weight = np.where((s > 0) & (s < r), s * np.log(r / s), 0.0)
        return weight * energy(s)

    return adaptive_gauss(integrand, 0.0, r, tol) / math.pi


def counting_function(curve: HolomorphicCurve | AngularEnergy, t, tol=DEFAULT_TOL):
    """n(t): total mass of the Riesz (Cartan) measure in |z| <= t.

    ``curve`` is a HolomorphicCurve, or an AngularEnergy of one (see
    characteristic_area).
    """
    if t <= 0:
        raise ValueError("radius must be positive")
    energy = _energy(curve, tol)
    return adaptive_gauss(lambda s: s * energy(s), 0.0, t, tol) / math.pi


# -- reduced curve ------------------------------------------------------------

def _arc_integral(poly: ComplexPoly, r, a, b):
    """Exact integral of Re poly(r e^{i theta}) over theta in [a, b]."""
    total = 0.0
    for k, c in enumerate(poly.coeffs):
        if k == 0:
            total += (c * (b - a)).real
        else:
            total += (c * r ** k * (np.exp(1j * k * b) - np.exp(1j * k * a)) / (1j * k)).real
    return total


def _kink_angles(polys, r, seeds=None):
    """Switch angles of argmax_j Re P_j on the circle of radius r, refined by
    bisection on the competing pair difference."""
    max_deg = max((int(p.degree()) for p in polys if not p.is_zero), default=0)
    if seeds is None:
        seeds = max(4 * max_deg + 16, 64)
    theta = np.linspace(0.0, 2 * np.pi, seeds, endpoint=False)
    vals = np.stack([np.asarray(p(r * np.exp(1j * theta))).real for p in polys])
    winner = np.argmax(vals, axis=0)
    kinks = []
    for k in range(seeds):
        i, j = winner[k], winner[(k + 1) % seeds]
        if i == j:
            continue
        lo, hi = theta[k], theta[k] + 2 * np.pi / seeds
        diff = polys[i] - polys[j]

        def h(t):
            return float(diff(r * np.exp(1j * t)).real)

        a, b = lo, hi
        fa = h(a)
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = h(mid)
            if (fa >= 0) == (fm >= 0):
                a, fa = mid, fm
            else:
                b = mid
            if b - a < 1e-13:
                break
        kinks.append(0.5 * (a + b))
    return sorted(k % (2 * np.pi) for k in kinks)


def circle_mean_max_re(polys, r):
    """(1/2pi) * integral over theta of max_j Re P_j(r e^{i theta}),
    integrating each smooth arc in closed form."""
    polys = list(polys)
    kinks = _kink_angles(polys, r)
    if not kinks:
        # single winner on the whole circle; identify it by sampling
        samples = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        stack = np.stack([np.asarray(p(r * np.exp(1j * samples))).real for p in polys])
        j = int(np.argmax(stack.sum(axis=1)))
        return _arc_integral(polys[j], r, 0.0, 2 * np.pi) / (2 * np.pi)
    total = 0.0
    for idx in range(len(kinks)):
        a = kinks[idx]
        b = kinks[(idx + 1) % len(kinks)]
        if idx == len(kinks) - 1:
            b += 2 * np.pi
        mid = 0.5 * (a + b)
        stack = [float(p(r * np.exp(1j * mid)).real) for p in polys]
        j = int(np.argmax(stack))
        total += _arc_integral(polys[j], r, a, b)
    return total / (2 * np.pi)


def reduced_characteristic(curve: HolomorphicCurve, r, tol=DEFAULT_TOL):
    """T*(r): circle average of u* = max_{1<=j<=n} Re P_j minus u*(0)."""
    polys = curve.reduced_polys()
    return reduced_characteristic_polys(polys, r)


def reduced_characteristic_polys(polys, r):
    u_star0 = max(float(p(0.0).real) for p in polys)
    return circle_mean_max_re(polys, r) - u_star0


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


def build_table(curve: HolomorphicCurve, radii, tol=DEFAULT_TOL,
                cross_check_tol=1e-6):
    radii = sorted(float(r) for r in radii)
    energy = AngularEnergy(curve, tol)
    t_area, t_jensen, counting = [], [], []
    for r in radii:
        ta = characteristic_area(energy, r, tol)
        tj = characteristic_jensen(curve, r, tol)
        if abs(ta - tj) > cross_check_tol:
            raise RuntimeError(
                f"characteristic routes disagree at r={r}: "
                f"area={ta!r}, jensen={tj!r}")
        t_area.append(ta)
        t_jensen.append(tj)
        counting.append(counting_function(energy, r, tol))
    return CharacteristicTable(radii, t_area, t_jensen, counting)
