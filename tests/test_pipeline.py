import math

import numpy as np
import pytest

from curvelab import (
    CurveComponent,
    HolomorphicCurve,
    circle_mean_max_re,
    harvest_tie_points,
    load_curve,
    parse_curve,
    prop1_check,
    prop2_margin,
    prop3_check,
    prop4_bound,
    reduced_characteristic,
    regularity_radius,
    theorem_constant,
    trace_branches,
    verify_theorem,
)
import curvelab.characteristic as characteristic
import curvelab.locus as locus
import curvelab.pipeline as pipeline
from curvelab.characteristic import HARVEST_SEEDS, characteristic_jensen, switch_points
from curvelab.curves import CompiledCurve
from curvelab.locus import tied
from curvelab.polynomials import ComplexPoly, circle_sign_changes, leading_hull, on_circles
from test_characteristic import FIXTURE_NAMES, FIXTURES, _sign_changes
from test_curves import _scanned_K
from test_jensen_panels import N3_SIGMA05, N4_SIGMA1, N6_SIGMA05


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
        # gradient gap replace, with the same arithmetic at every point
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
        assert prop1_check(curve, points) == worst


def _scan_sign_changes(diff, r, seeds):
    """Angles where diff(r e^{i theta}) changes sign between neighbouring ones
    of ``seeds`` equally spaced angles, refined by bisection."""
    theta = np.linspace(0.0, 2 * np.pi, seeds, endpoint=False)
    d = diff(r * np.exp(1j * theta))
    d_next = np.roll(d, -1)
    brackets = np.isfinite(d) & np.isfinite(d_next) & ((d > 0) != (d_next > 0))
    a = theta[brackets]
    b = a + 2 * np.pi / seeds
    positive = d[brackets] > 0
    for _ in range(60):
        mid = 0.5 * (a + b)
        same = (diff(r * np.exp(1j * mid)) > 0) == positive
        a = np.where(same, mid, a)
        b = np.where(same, b, mid)
    return 0.5 * (a + b)


def _harvest_per_radius(curve, radii, seeds=512):
    """One circle and one pair at a time: a scan and bisection for each pair
    (0, j), circle_sign_changes at one radius for each pair i, j >= 1."""
    comps = curve.components
    first, second = np.triu_indices(len(comps), 1)
    points = []
    for r in radii:
        angles = [
            _scan_sign_changes(lambda z: comps[0].log_modulus(z) - comps[j].log_modulus(z), r, seeds)
            if i == 0 else _sign_changes(comps[i].exponent - comps[j].exponent, r)
            for i, j in zip(first, second)]
        counts = [len(found) for found in angles]
        z = r * np.exp(1j * np.concatenate(angles))
        top = tied(np.stack([c.log_modulus(z) for c in comps]), 1e-7)
        cols = np.arange(z.size)
        points.extend(z[top[np.repeat(first, counts), cols] & top[np.repeat(second, counts), cols]])
    return points


def _random_curve(rng, n, kind0):
    def coeffs(d):
        return rng.normal(0.0, 0.5, size=d + 1) + 1j * rng.normal(0.0, 0.5, size=d + 1)
    first = {"poly": lambda: CurveComponent.poly(coeffs(2)),
             "exppoly": lambda: CurveComponent.exp_poly(coeffs(2)),
             "polyexp": lambda: CurveComponent.poly_exp(coeffs(2), coeffs(2))}[kind0]()
    rest = [CurveComponent.exp_poly(coeffs(2)) for _ in range(1, n)]
    return HolomorphicCurve(n, (first, *rest, CurveComponent.one()), 0.0)


def _harvest_all_components(curve, radii):
    """harvest_tie_points by 60 bisection steps, with every component
    evaluated at each: the reference of the Newton steps."""
    comps = curve.components
    first, second = np.triu_indices(len(comps), 1)
    radii = np.asarray(radii, dtype=float)
    theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    u = np.stack([c.log_modulus(radii[:, None] * np.exp(1j * theta)) for c in comps])
    d = np.moveaxis(u[0] - u[1:], 0, 1)
    d_next = np.roll(d, -1, axis=2)
    k, pair, s = np.nonzero(np.isfinite(d) & np.isfinite(d_next) & ((d > 0) != (d_next > 0)))
    a, b = theta[s], theta[s] + 2 * np.pi / 512
    positive = d[k, pair, s] > 0
    cols = np.arange(k.size)
    for _ in range(60):
        mid = 0.5 * (a + b)
        u = np.stack([c.log_modulus(radii[k] * np.exp(1j * mid)) for c in comps])
        same = (u[0] - u[pair + 1, cols] > 0) == positive
        a = np.where(same, mid, a)
        b = np.where(same, b, mid)
    ks, pairs, angles = [k], [pair], [0.5 * (a + b)]
    for p in range(len(comps) - 1, len(first)):
        # one pair at a time, over all radii
        _, circle, theta = circle_sign_changes(
            [comps[first[p]].exponent, comps[second[p]].exponent], radii)
        ks.append(circle)
        pairs.append(np.full(circle.size, p))
        angles.append(theta)
    order = np.lexsort((np.concatenate(pairs), np.concatenate(ks)))
    pair = np.concatenate(pairs)[order]
    z = radii[np.concatenate(ks)[order]] * np.exp(1j * np.concatenate(angles)[order])
    top = tied(np.stack([c.log_modulus(z) for c in comps]), 1e-7)
    cols = np.arange(z.size)
    return list(z[top[first[pair], cols] & top[second[pair], cols]])


@pytest.mark.identity
class TestHarvest:
    def test_matches_per_radius_loop(self):
        rng = np.random.default_rng(11)
        for kind0 in ("poly", "exppoly", "polyexp"):
            for n in range(1, 5):
                curve = _random_curve(rng, n, kind0)
                r0 = regularity_radius(curve.reduced_polys())
                radii = list(r0 * np.array([0.1, 0.4, 1.0, 2.5, 6.0]))
                expected = _harvest_per_radius(curve, radii)
                got = harvest_tie_points(curve, radii)
                assert len(got) == len(expected) > 0, (kind0, n)
                assert np.allclose(got, expected, rtol=1e-14, atol=0.0), (kind0, n)
        # more than 400 points: every one of them is returned, in order
        curve = _random_curve(rng, 4, "polyexp")
        radii = list(np.geomspace(0.5, 30.0, 90))
        expected = _harvest_per_radius(curve, radii)
        assert len(expected) > 400
        got = harvest_tie_points(curve, radii)
        assert len(got) == len(expected)
        assert np.allclose(got, expected, rtol=1e-14, atol=0.0)

    def test_newton_matches_bisection(self, monkeypatch):
        # the Newton steps find the points of 60 bisection steps, in the same
        # order, to 1e-12 in angle, with a few log_moduli passes each. On the
        # circles where u_0 - u_j is constant (line and product2 at r = 1) the
        # gap is zero to rounding all round, and every point is a tie
        rng = np.random.default_rng(29)
        names = list(FIXTURE_NAMES) + ["random"] * 4
        curves = [load_curve(FIXTURES / f"{name}.json") for name in FIXTURE_NAMES]
        curves += [_random_curve(rng, n, kind0)
                   for n, kind0 in ((1, "poly"), (2, "polyexp"), (3, "exppoly"), (4, "polyexp"))]
        radii = list(np.geomspace(1.0, 20.0, 16)[::2])
        calls = []
        original = CompiledCurve.log_moduli
        monkeypatch.setattr(CompiledCurve, "log_moduli",
                            lambda self, z: calls.append(1) or original(self, z))
        found = 0
        for name, curve in zip(names, curves):
            calls.clear()
            got = np.array(harvest_tie_points(curve, radii), dtype=complex)
            assert len(calls) <= 12, name
            expected = np.array(_harvest_all_components(curve, radii), dtype=complex)
            assert got.size == expected.size, name
            constant = (np.abs(np.abs(expected) - 1.0) < 1e-12) & (name in ("line", "product2"))
            assert constant.any() == (name in ("line", "product2"))
            assert np.all(np.abs(got - expected)[~constant] <= 1e-12 * np.abs(expected[~constant])), name
            assert np.allclose(np.abs(got[constant]), 1.0, rtol=0.0, atol=1e-15)
            assert np.all(tied(curve.compiled.log_moduli(got[constant]), 1e-7).sum(axis=0) >= 2)
            found += got.size > 0
        assert found >= 6

    def test_no_per_component_evaluation(self, monkeypatch):
        # the harvest and prop1 read only the stacked rows of the compiled
        # curve, and the locus stage and T* only stacked coefficient rows
        calls = {}
        for cls, name in ((ComplexPoly, "__call__"), (CurveComponent, "log_modulus"),
                          (CurveComponent, "log_derivative")):
            def counted(*args, _original=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _original(*args)
            calls[name] = 0
            monkeypatch.setattr(cls, name, counted)
        for curve in (load_curve(FIXTURES / "product2.json"),
                      _random_curve(np.random.default_rng(3), 3, "polyexp")):
            points = harvest_tie_points(curve, [1.0, 3.0, 8.0])
            assert points
            prop1_check(curve, points)
            polys = curve.reduced_polys()
            r0 = regularity_radius(polys)
            assert trace_branches(polys, r0, 4 * r0).branches
            reduced_characteristic(curve, [1.0, 3.0, 8.0])
        assert calls == {"__call__": 0, "log_modulus": 0, "log_derivative": 0}


class TestProp2:
    def test_exp_curve_rows(self, exp_curve):
        rows = prop2_margin(exp_curve, 0.01, [5.0, 10.0, 20.0])
        for r, sup, bound in rows:
            # sup u - u* = r + O(1); bound = 0.5*2.01*2*r = 2.01 r
            assert sup <= bound
            assert sup == pytest.approx(r, abs=1.0)
        # the one-grid call matches one call per radius
        for row in rows:
            assert row == pytest.approx(prop2_margin(exp_curve, 0.01, [row[0]])[0], rel=1e-14)

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
        out = prop3_check((summary.b, summary.c0), curve)
        assert out["b"] == 0.0
        assert out["c0"] == pytest.approx(1 / math.pi)
        assert out["verdict_b"] and out["verdict_c0"]

    def test_empty_locus_vacuous(self, exp_curve):
        out = prop3_check((-math.inf, 0.0), exp_curve)
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


# locus17 of the seed-91 locus-bound workload (bench/workloads.py), as written
LOCUS_BOUND_91_17 = {
    "n": 6, "sigma": 1.0, "K": 1.0,
    "components": [
        {"type": "polyexp",
         "Q": [
             [-0.965713591151578, 0.371297981923292],
             [0.46609544409585113, 0.15508826285021093],
             [-0.7620791841456641, 0.9289630111218546],
         ],
         "P": [
             [-0.8997313290639006, 0.7579507215527801],
             [0.37234316466390643, -0.732710643509773],
             [0.664040598321191, 1.0743370549723124],
             [-1.063937143196126, -0.8711715130451666],
             [0.2735940017607168, 0.6433937866487349],
         ]},
        {"type": "exppoly",
         "P": [
             [0.2179052350666404, -0.34776481874710696],
             [-0.9234828042996176, 0.882208174243828],
             [0.5691147033307676, -0.1987688846693773],
             [-0.29618475336252353, 0.6652344891629174],
             [0.6537944765160641, -0.4941539322210525],
         ]},
        {"type": "exppoly",
         "P": [
             [-0.51929932454077, -0.16213107748302266],
             [0.2629700231654453, -0.19438318166482368],
             [-0.10349107334484219, 0.25182629347007396],
             [0.3275541021439321, -0.23485167081694883],
             [-0.0003672603262259587, -0.014285640096319857],
         ]},
        {"type": "exppoly",
         "P": [
             [-0.10711679259344682, 0.6989470960528399],
             [0.7673895006693547, 0.3838887471835109],
             [-0.5880713822614307, 1.0597727939266013],
             [-0.8471991592462913, -0.4163755786432219],
             [0.4744754788939673, -0.12055885581691993],
         ]},
        {"type": "exppoly",
         "P": [
             [-0.30733160015045036, -0.7163223628210503],
             [0.4011763724467473, -0.6166414658401738],
             [0.13042881375427284, 0.23591003893911225],
             [0.3326339726636806, -0.527130516119353],
             [0.12293536049902337, -0.0008460910088708729],
         ]},
        {"type": "exppoly",
         "P": [
             [-0.2710057754310649, 0.062137328130066165],
             [-0.35769776772161466, -0.7425565192328883],
             [-0.4753626822168724, -1.0183194772158102],
             [0.4018775762407679, 0.07403508184159972],
             [-1.1604026858206156, 0.46715246625394075],
         ]},
        {"type": "exppoly",
         "P": []},
    ],
}


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

    def test_K_read_from_r_1_on(self):
        # K is read on the solved circles with r >= 1, or on all of them for a
        # grid inside the unit disk; a declared K reads none
        curve = load_curve(FIXTURES / "product2.json")
        inside, across = np.geomspace(0.1, 1.0, 8), np.geomspace(0.25, 4.0, 8)
        assert verify_theorem(curve, across).K_radii is None
        assert verify_theorem(curve.with_K(None), inside).K_radii == inside.tolist()
        assert verify_theorem(curve.with_K(None), across).K_radii == across[across >= 1.0].tolist()

    @pytest.mark.parametrize("grid", [[2.0], [3.0, 3.0]])
    def test_K_omitted_needs_two_distinct_radii(self, grid):
        bare = load_curve(FIXTURES / "product2.json").with_K(None)
        with pytest.raises(ValueError, match="declare K or pass two distinct radii"):
            verify_theorem(bare, grid)

    def test_empty_grid(self):
        for curve in (load_curve(FIXTURES / "product2.json"),
                      load_curve(FIXTURES / "product2.json").with_K(None)):
            with pytest.raises(ValueError, match="empty r_grid"):
                verify_theorem(curve, [])

    def test_declared_K_single_radius(self):
        curve = load_curve(FIXTURES / "product2.json")
        report = verify_theorem(curve, [2.0])
        assert report.K == curve.K
        assert [row[0] for row in report.tail_rows] == [2.0]

    def test_report_json_roundtrip(self, exp_curve):
        import json
        report = verify_theorem(exp_curve, np.geomspace(1, 10, 8))
        data = json.loads(report.to_json())
        assert data["verdicts"]["theorem"] is True
        assert data["theorem_constant"] == pytest.approx(28.02)

    @pytest.mark.identity
    def test_prop3_reads_the_leading_hull(self, monkeypatch):
        # product2's far field is its hull's: the locus is neither bounded nor solved
        calls = []
        for name in ("trace_branches", "regularity_radius"):
            for module in (pipeline, locus):
                monkeypatch.setattr(module, name, lambda *args, _name=name: calls.append(_name))
        curve = load_curve(FIXTURES / "product2.json")
        report = verify_theorem(curve, np.geomspace(1.0, 20.0, 16))
        assert calls == []
        assert (report.prop3["b"], report.prop3["c0"]) == leading_hull(curve.reduced_polys())

    def test_prop3_falls_back_where_lower_terms_decide(self):
        # the top coefficient 0 of 1 and 0 lies inside the hull edge from 1 to
        # -1, and near the diagonals the constant 1 beats +-z^2: the tail
        # radii read c0 = 1/pi, where the bare hull would read 2/pi
        comps = (CurveComponent.poly([1, 1]), *map(CurveComponent.exp_poly, ([0, 0, 1], [0, 0, -1], [1])),
                 CurveComponent.one())
        curve = HolomorphicCurve(4, comps, 0.0, 1.0)
        polys = curve.reduced_polys()
        r0 = regularity_radius(polys)
        report = verify_theorem(curve, np.geomspace(1.0, 20.0, 8))
        summary = trace_branches(polys, r0, max(4 * r0, 20.0))
        assert (report.prop3["b"], report.prop3["c0"]) == (summary.b, summary.c0) == (1.0, pytest.approx(1 / math.pi))

    def test_prop1_reads_harvested_ties_only(self):
        # far out on its locus (|z| ~ 7000) u is ~3e14, where a relative tie
        # tolerance of 1e-6 takes a 25-unit gap between u_1 and u_5 for a tie;
        # a locus point there once drove prop1_worst to -2.87e12. The
        # harvested ties on the grid circles give the true margin.
        curve = parse_curve(LOCUS_BOUND_91_17)
        report = verify_theorem(curve, np.geomspace(1.0, 20.0, 16))
        assert report.verdicts["prop1"]
        assert report.prop1_worst == pytest.approx(8.274, abs=1e-3)


def _shared_work_curves(seed):
    """The fixtures, three curves with sharp ties whose tail circles go on to
    the Jensen panels, and random curves with n = 1..6, all with K declared."""
    rng = np.random.default_rng(seed)
    curves = [load_curve(FIXTURES / f"{name}.json") for name in FIXTURE_NAMES]
    curves += [parse_curve(spec).with_K(1.0) for spec in (N3_SIGMA05, N4_SIGMA1, N6_SIGMA05)]
    return curves + [_random_curve(rng, n, kind0).with_K(1.0)
                     for n, kind0 in zip(range(1, 7), ("poly", "exppoly", "polyexp") * 2)]


def _same_bits(got, expected):
    return len(got) == len(expected) and all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, expected))


def _recorded(monkeypatch, module, name):
    """Patch module.name to record the arguments and result of every call."""
    calls, original = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append((args, original(*args))) or calls[-1][1])
    return calls


@pytest.mark.identity
@pytest.mark.parametrize("count", [16, 13])
def test_one_solve_serves_every_check(monkeypatch, count):
    # verify_theorem solves the sign changes and switch points once, on the
    # union of prop1's circles and the tail, and hands each check its own
    # circles: prop1's points, T* and T are the bits of their routes run alone
    panels = _recorded(monkeypatch, characteristic, "_graded_panels")
    means = _recorded(monkeypatch, characteristic, "circle_mean_max_re")
    ties = _recorded(monkeypatch, pipeline, "prop1_check")
    grid = np.geomspace(1.0, 20.0, count)
    harvest, tail = grid[:: count // 6], grid[math.floor(0.75 * count):]
    for curve in _shared_work_curves(41):
        means.clear()
        ties.clear()
        report = verify_theorem(curve, grid)
        [((_, points), worst)], [(_, mean)] = ties, means
        expected = harvest_tie_points(curve, harvest)
        assert points.tobytes() == np.array(expected, dtype=complex).tobytes()
        assert worst == report.prop1_worst == prop1_check(curve, expected)
        assert mean.tolist() == circle_mean_max_re(curve.reduced_polys(), tail).tolist()
        assert [row[0] for row in report.tail_rows] == tail.tolist()
        # the same switch points route the same circles to the panels; without
        # them a circle the trapezoid stops on falsely keeps its value by design
        jensen = characteristic_jensen(curve, tail, switches=switch_points(curve, tail))
        assert [row[1] for row in report.tail_rows] == jensen.tolist()
        t_star = reduced_characteristic(curve, tail)
        assert report.prop4_margin == float(np.min(prop4_bound(curve.n, curve.sigma, curve.K, tail) - t_star))
    assert sum(args[1] for args, _ in panels) >= 6    # tail circles that went on to the panels


@pytest.mark.identity
def test_one_grid_serves_prop2_and_the_switch_scan(monkeypatch):
    # verify_theorem reads log_moduli once on the verify grid: the even angles
    # of its solved circles are the scan switch_points reads alone, and the
    # whole grid gives the rows prop2_margin reads alone, bit for bit
    scans = _recorded(monkeypatch, pipeline, "switch_points")
    sups = _recorded(monkeypatch, pipeline, "prop2_margin")
    theta = np.linspace(0.0, 2 * np.pi, HARVEST_SEEDS, endpoint=False)
    for curve in _shared_work_curves(47):
        scans.clear()
        sups.clear()
        verify_theorem(curve, np.geomspace(1.0, 20.0, 16))
        [((_, radii, changes, scan), switches)], [((_, epsilon, grid, _), rows)] = scans, sups
        own = curve.compiled.log_moduli(radii[:, None] * np.exp(1j * theta))
        assert scan.shape == own.shape and scan.tobytes() == own.tobytes()
        assert _same_bits(switches, switch_points(curve, radii, changes))
        assert rows == prop2_margin(curve, epsilon, grid)


@pytest.mark.identity
def test_switch_points_on_a_subset_of_circles():
    # the switch points and sign changes of a union of circles, restricted to
    # some of them, are those of these circles alone, bit for bit; so are the
    # switch points when the caller hands in the sign changes
    radii = np.geomspace(1.0, 20.0, 16)
    found = 0
    for curve in _shared_work_curves(43):
        polys = curve.reduced_polys()
        changes, whole = circle_sign_changes(polys, radii), switch_points(curve, radii)
        assert _same_bits(switch_points(curve, radii, changes), whole)
        for keep in (np.arange(0, 16, 2), np.arange(12, 16), np.array([5])):
            assert _same_bits(on_circles(whole, keep), switch_points(curve, radii[keep]))
            assert _same_bits(on_circles(changes, keep, at=1), circle_sign_changes(polys, radii[keep]))
        found += whole[0].size
    assert found > 100


@pytest.mark.identity
def test_with_K_shares_the_compiled_curve(monkeypatch):
    # the kernel depends only on the components, so a K-omitted verify_theorem
    # reuses the one its circle solve built, and its report keeps every bit
    bare = load_curve(FIXTURES / "product2.json").with_K(None)
    assert "compiled" not in bare.with_K(2.0).__dict__      # nothing is built before first use
    compiled = bare.compiled
    assert bare.with_K(2.0).compiled is compiled
    grid = np.geomspace(1.0, 20.0, 16)
    curves = _shared_work_curves(43)[::2]
    shared = [verify_theorem(curve.with_K(None), grid).to_json() for curve in curves]
    monkeypatch.setattr(HolomorphicCurve, "with_K",
                        lambda self, K: HolomorphicCurve(self.n, self.components, self.sigma, K))
    assert shared == [verify_theorem(curve.with_K(None), grid).to_json() for curve in curves]


def test_K_at_least_a_scan_of_its_circles(bench):
    # on the K-omitted locus-bound curves, K is at least a 2^14-angle scan of
    # ||f'|| / r^sigma on every circle it was read on: the switch points find
    # the spikes where two |f_k| tie, which are narrower than the scan's step
    workloads = bench("workloads")
    specs = [spec for spec in workloads.locus_bound_workload(81).specs.values() if "K" not in spec]
    assert len(specs) == 9
    for spec in specs:
        curve = parse_curve(spec)
        report = verify_theorem(curve, workloads.VERIFY_GRID)
        assert min(report.K_radii) >= 1.0 and 20.0 in report.K_radii
        assert report.K >= (1 - 1e-12) * _scanned_K(curve, report.K_radii, 1 << 14)
