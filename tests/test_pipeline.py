import math

import numpy as np
import pytest

from curvelab import (
    CurveComponent,
    HolomorphicCurve,
    harvest_tie_points,
    prop1_check,
    prop2_margin,
    prop3_check,
    prop4_bound,
    theorem_constant,
    trace_branches,
    verify_theorem,
)


class TestProp1:
    def test_exp_pair_on_imaginary_axis(self):
        curve = HolomorphicCurve(
            2, (CurveComponent.exp_poly([0, 1]), CurveComponent.exp_poly([0, -1]),
                CurveComponent.one()), 0.0)
        points = [1j * t for t in (0.5, 1.0, 2.0, 5.0)]
        assert prop1_check(curve, points) >= 0.0

    def test_line_curve_equality_case(self, line_curve):
        # at z = 1 both u_0 and u_1 vanish; 2*||f'|| = 1 = |grad log|z||
        margin = prop1_check(line_curve, [1.0])
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_point_without_tie_rejected(self, line_curve):
        with pytest.raises(ValueError, match="tied"):
            prop1_check(line_curve, [5.0])

    def test_harvested_points(self, product_curve):
        points = harvest_tie_points(product_curve, [2.0, 5.0, 10.0])
        assert points
        assert prop1_check(product_curve, points) >= -1e-8

    def test_matches_per_point_loop(self):
        # reference: the per-point loop that the vectorised tie test and
        # gradient gap replace; only the order of polynomial evaluation differs
        rng = np.random.default_rng(5)

        def coeffs(d):
            return rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        curve = HolomorphicCurve(3, (
            CurveComponent.poly_exp(coeffs(2), coeffs(3)), CurveComponent.exp_poly(coeffs(3)),
            CurveComponent.exp_poly(coeffs(3)), CurveComponent.one()), 0.5)
        comps = curve.components
        points = harvest_tie_points(curve, [1.0, 3.0, 8.0])
        worst = math.inf
        for z in points:
            vals = [float(c.log_modulus(z)) for c in comps]
            vmax = max(vals)
            top = [j for j, v in enumerate(vals) if v >= vmax - 1e-6 * (1 + abs(vmax))]
            gap = max(abs(comps[m].log_derivative(z) - comps[k].log_derivative(z))
                      for a, m in enumerate(top) for k in top[a + 1:])
            worst = min(worst, 4 * float(curve.spherical_derivative(z)) - gap)
        assert len(points) > 10
        assert prop1_check(curve, points) == pytest.approx(worst, rel=1e-12)


class TestProp2:
    def test_exp_curve_rows(self, exp_curve):
        rows = prop2_margin(exp_curve, 0.01, [5.0, 10.0, 20.0])
        for r, sup, bound in rows:
            # sup u - u* = r + O(1); bound = 0.5*2.01*2*r = 2.01 r
            assert sup <= bound
            assert sup == pytest.approx(r, abs=1.0)

    def test_line_curve_log_growth(self, line_curve):
        rows = prop2_margin(line_curve, 0.01, [10.0])
        r, sup, bound = rows[0]
        assert sup == pytest.approx(0.5 * math.log(1 + 100), abs=1e-6)
        assert sup <= bound


class TestProp3Prop4:
    def test_two_exponential_locus(self):
        curve = HolomorphicCurve(
            2, (CurveComponent.poly([0, 1]), CurveComponent.exp_poly([0, 2]),
                CurveComponent.one()), 0.0, 1.0)
        polys = curve.reduced_polys()
        summary = trace_branches(polys, 4.0, 40.0)
        out = prop3_check(summary, curve)
        assert out["b"] == 0.0
        assert out["c0"] == pytest.approx(1 / math.pi)
        assert out["verdict_b"] and out["verdict_c0"]

    def test_empty_locus_vacuous(self, exp_curve):
        out = prop3_check(None, exp_curve)
        assert out["b"] == -math.inf
        assert out["verdict_b"] and out["verdict_c0"]

    def test_prop4_arithmetic(self):
        assert prop4_bound(1, 0.0, 1.0, 1.0) == pytest.approx(24.0)
        assert prop4_bound(2, 0.0, 1.0, 2.0) == pytest.approx(6 * 2 * 9 * 2)


class TestTheoremConstant:
    def test_values(self):
        assert theorem_constant(1, 0.0, 0.01) == pytest.approx(28.02)
        assert theorem_constant(2, 0.0, 0.01) == pytest.approx(114.03)

    def test_monotone_in_n_and_sigma(self):
        for n in range(1, 5):
            for sigma in (0.0, 0.5, 1.0, 2.0):
                assert theorem_constant(n + 1, sigma) > theorem_constant(n, sigma)
                assert theorem_constant(n, sigma + 0.5) > theorem_constant(n, sigma)

    def test_large_sigma_ratio(self):
        # dominant-term ratio 4*(sigma+1)/(sigma+2) climbs to 4
        ratios = [theorem_constant(2, s + 1) / theorem_constant(2, s)
                  for s in (10, 50, 200)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(4.0, abs=0.02)
        assert ratios[-1] < 4.0

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            theorem_constant(1, 0.0, 0.0)


class TestVerifyTheorem:
    def test_exp_curve_all_verdicts(self, exp_curve):
        report = verify_theorem(exp_curve, np.geomspace(1, 20, 12))
        assert report.all_true
        # T(r)/r -> 1/pi, far below K*C(1,0) = 14.01
        r, t, ceiling = report.tail_rows[-1]
        assert t / r < 0.5
        assert ceiling / r == pytest.approx(0.5 * 28.02 * 1.1, rel=1e-9)

    def test_constant_curve(self, constant_curve):
        report = verify_theorem(constant_curve, np.geomspace(1, 8, 8))
        assert report.all_true

    def test_product_curve_regression(self, product_curve):
        report = verify_theorem(product_curve, np.geomspace(1, 20, 12))
        assert report.all_true
        assert report.prop3["b"] == 0.0
        assert report.prop3["c0"] == pytest.approx(1 / (2 * math.pi))

    def test_K_estimated_when_missing(self, exp_curve):
        bare = HolomorphicCurve(exp_curve.n, exp_curve.components, 0.0, None)
        report = verify_theorem(bare, np.geomspace(1, 20, 10))
        assert report.K == pytest.approx(0.5, abs=1e-3)
        assert report.all_true

    def test_report_json_roundtrip(self, exp_curve):
        import json
        report = verify_theorem(exp_curve, np.geomspace(1, 10, 8))
        data = json.loads(report.to_json())
        assert data["verdicts"]["theorem"] is True
        assert data["theorem_constant"] == pytest.approx(28.02)
