"""Randomized invariant suites over curve families."""

import math

import numpy as np

from curvelab import (
    CurveComponent,
    HolomorphicCurve,
    characteristic_jensen,
)
from curvelab.curves import CompiledCurve
from curvelab.polynomials import ComplexPoly


def _random_curve(rng):
    n = int(rng.integers(1, 4))
    sigma = float(rng.choice([0.0, 0.5, 1.0]))
    cap = math.floor(2 * sigma + 2)
    comps = []
    kind = rng.integers(0, 3)
    deg0 = int(rng.integers(0, cap + 1))
    p0 = ComplexPoly(rng.normal(size=deg0 + 1) + 1j * rng.normal(size=deg0 + 1))
    qdeg = int(rng.integers(0, 3))
    q0 = ComplexPoly(rng.normal(size=qdeg + 1) + 1j * rng.normal(size=qdeg + 1))
    if q0.is_zero:
        q0 = ComplexPoly([1.0])
    if kind == 0:
        comps.append(CurveComponent.poly(q0))
    elif kind == 1:
        comps.append(CurveComponent.exp_poly(p0))
    else:
        comps.append(CurveComponent.poly_exp(q0, p0))
    for _ in range(n - 1):
        deg = int(rng.integers(0, cap + 1))
        comps.append(CurveComponent.exp_poly(
            ComplexPoly(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))))
    comps.append(CurveComponent.one())
    return HolomorphicCurve(n, tuple(comps), sigma)


def _sample_points(rng, count):
    return rng.uniform(-8, 8, count) + 1j * rng.uniform(-8, 8, count)


def test_u_nonnegative_everywhere():
    rng = np.random.default_rng(100)
    checked = 0
    while checked < 1200:
        curve = _random_curve(rng)
        z = _sample_points(rng, 50)
        u = np.asarray(curve.u(z))
        assert np.all(u >= 0.0)
        checked += len(z)


def test_max_sandwich():
    # 0 <= u - max_j u_j <= log sqrt(n+1), the max over the full index range
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 1200:
        curve = _random_curve(rng)
        z = _sample_points(rng, 50)
        u = np.asarray(curve.u(z))
        umax = np.max(np.stack([c.log_modulus(z) for c in curve.components]), axis=0)
        gap = u - umax
        assert np.all(gap >= -1e-12)
        assert np.all(gap <= 0.5 * math.log(curve.n + 1) + 1e-12)
        checked += len(z)


def test_representation_invariance_of_spherical_derivative():
    # multiplying every component by e^{Q} leaves ||f'|| unchanged
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 1200:
        curve = _random_curve(rng)
        deg = int(rng.integers(1, 4))
        q = ComplexPoly(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        z = _sample_points(rng, 25)
        base = np.asarray(CompiledCurve(curve.components).spherical_derivative(z))
        scaled = tuple(CurveComponent.poly_exp(c.poly_factor, c.exponent + q)
                       for c in curve.components)
        other = np.asarray(CompiledCurve(scaled).spherical_derivative(z))
        mask = base > 1e-300
        assert np.all(np.abs(other[mask] - base[mask]) <= 1e-12 * base[mask])
        checked += len(z)


def test_characteristic_monotone():
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 1000:
        curve = _random_curve(rng)
        r1 = float(rng.uniform(0.5, 5.0))
        r2 = r1 * float(rng.uniform(1.2, 3.0))
        t1 = characteristic_jensen(curve, r1, 1e-7)
        t2 = characteristic_jensen(curve, r2, 1e-7)
        assert t1 <= t2 + 1e-9 * (1 + abs(t2))
        checked += 1
