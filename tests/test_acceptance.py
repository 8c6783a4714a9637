"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from curvelab import (
    characteristic_area,
    characteristic_jensen,
    count_branch_bound,
    green_boundary_min,
    random_lemma_family,
    regularity_radius,
    riesz_of_max,
    theorem_constant,
    trace_branches,
    verify_lemma1,
    verify_lemma2,
    verify_theorem,
)
from curvelab.characteristic import reduced_characteristic_polys
from curvelab.lemmas import DiscHarmonic
from curvelab.polynomials import ComplexPoly
from curvelab.quadrature import periodic_trapezoid


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_green_kernel_minimum():
    start = time.perf_counter()
    value, _ = green_boundary_min(0.5)
    elapsed = time.perf_counter() - start
    ok = abs(value - 1 / 3) < 1e-9 and elapsed < 1.0
    _report("1 green-kernel-minimum", ok,
            f"min={value:.12f} err={abs(value - 1/3):.2e} time={elapsed:.2f}s")


def test_criterion_2_route_equivalence(line_curve, exp_curve, product_curve):
    start = time.perf_counter()
    worst = 0.0
    for curve in (line_curve, exp_curve, product_curve):
        for r in (1.0, 2.0, 5.0, 10.0):
            gap = abs(characteristic_area(curve, r) - characteristic_jensen(curve, r))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    _report("2 route-equivalence", ok, f"worst gap={worst:.2e} time={elapsed:.1f}s")


def test_criterion_3_classical_asymptotic(exp_curve):
    start = time.perf_counter()
    r = 50.0
    value = characteristic_jensen(exp_curve, r) / r

    # independent oracle: circle quadrature of the closed form
    # u(z) = log sqrt(1 + e^{2 Re z})
    def integrand(z):
        return 0.5 * np.logaddexp(0.0, 2 * z.real)

    oracle = (periodic_trapezoid(integrand, [r], 1e-10)[0] / (2 * math.pi)
              - math.log(math.sqrt(2))) / r
    elapsed = time.perf_counter() - start
    ok = (1 / math.pi - 0.01 <= value <= 1 / math.pi + 0.01
          and abs(value - oracle) < 1e-8 and elapsed < 10.0)
    _report("3 classical-asymptotic", ok,
            f"T(50)/50={value:.6f} oracle={oracle:.6f} time={elapsed:.1f}s")


def test_criterion_4_locus_jensen_oracle():
    start = time.perf_counter()
    families = [
        [ComplexPoly([0, 1]), ComplexPoly([])],
        [ComplexPoly([0, 0, 1]), ComplexPoly([0, 0, -1])],
    ]
    worst = 0.0
    h = 1e-5
    for polys in families:
        r0 = regularity_radius(polys)
        summary = trace_branches(polys, r0, 55.0)

        def nu_jensen(s):
            return (reduced_characteristic_polys(polys, s * math.exp(h))
                    - reduced_characteristic_polys(polys, s * math.exp(-h))) / (2 * h)

        base = nu_jensen(r0)
        for t in np.linspace(2 * r0, 50.0, 12):
            line_integral = riesz_of_max(polys, float(t), r0, summary)
            oracle = nu_jensen(float(t)) - base
            worst = max(worst, abs(line_integral - oracle) / abs(oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and elapsed < 30.0
    _report("4 locus-jensen-oracle", ok, f"worst rel={worst:.2e} time={elapsed:.1f}s")


def test_criterion_5_lemma_harnesses():
    start = time.perf_counter()
    min1 = min(verify_lemma1(v, z1)[2]
               for v, z1 in random_lemma_family(0, 1000, "harmonic"))
    min2 = min(verify_lemma2(v, z1)[2]
               for v, z1 in random_lemma_family(1, 1000, "superharmonic"))
    _, _, mobius_margin = verify_lemma1(DiscHarmonic.halfplane_kernel(), -1.0)
    elapsed = time.perf_counter() - start
    ok = (min1 >= -1e-8 and min2 >= -1e-8 and abs(mobius_margin) <= 1e-10
          and elapsed < 60.0)
    _report("5 lemma-harnesses", ok,
            f"min1={min1:.3e} min2={min2:.3e} mobius={mobius_margin:.1e} "
            f"time={elapsed:.1f}s")


def test_criterion_6_branch_count_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    all_ok = True
    for sigma in (0.0, 0.5, 1.0):
        cap = math.floor(2 * sigma + 2)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            polys = []
            for _ in range(n):
                deg = int(rng.integers(0, cap + 1))
                polys.append(ComplexPoly(rng.normal(size=deg + 1)
                                         + 1j * rng.normal(size=deg + 1)))
            _, _, ok = count_branch_bound(polys, sigma)
            all_ok = all_ok and ok
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 10.0
    _report("6 branch-count-bound", ok, f"time={elapsed:.1f}s")


def test_criterion_7_end_to_end_theorem(line_curve, exp_curve, product_curve,
                                        square_exp_curve):
    start = time.perf_counter()
    const = theorem_constant(1, 0.0, 0.01)
    arithmetic_ok = abs(const - (24 + 2 * 2.01)) < 1e-12
    verdicts_ok = True
    for curve in (line_curve, exp_curve, product_curve, square_exp_curve):
        report = verify_theorem(curve, np.geomspace(1.0, 20.0, 12))
        verdicts_ok = verdicts_ok and report.all_true
    elapsed = time.perf_counter() - start
    ok = arithmetic_ok and verdicts_ok and elapsed < 60.0
    _report("7 end-to-end-theorem", ok,
            f"C(1,0)={const} verdicts={verdicts_ok} time={elapsed:.1f}s")


def test_criterion_8_property_suites():
    # delegated detail lives in test_properties.py; rerun the four invariant
    # loops here so the gate is self-contained
    from test_properties import (
        test_characteristic_monotone,
        test_max_sandwich,
        test_representation_invariance_of_spherical_derivative,
        test_u_nonnegative_everywhere,
    )
    start = time.perf_counter()
    test_u_nonnegative_everywhere()
    test_max_sandwich()
    test_representation_invariance_of_spherical_derivative()
    test_characteristic_monotone()
    elapsed = time.perf_counter() - start
    _report("8 property-suites", True, f"time={elapsed:.1f}s")
