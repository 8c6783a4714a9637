import math
from pathlib import Path

import numpy as np
import pytest

import curvelab.characteristic
from curvelab import (
    build_table,
    characteristic_area,
    characteristic_jensen,
    circle_mean_max_re,
    counting_function,
    load_curve,
    reduced_characteristic,
    reduced_characteristic_polys,
)
from curvelab.characteristic import DEFAULT_TOL
from curvelab.polynomials import ComplexPoly, circle_sign_changes
from test_quadrature import _depth_first


class TestJensenRoute:
    def test_line_closed_form(self, line_curve):
        # u(re^{i t}) = log sqrt(1 + r^2), independent of angle
        assert characteristic_jensen(line_curve, 2.0) == pytest.approx(
            0.5 * math.log(5.0), abs=1e-10)

    def test_constant_curve(self, constant_curve):
        assert characteristic_jensen(constant_curve, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_area_route(self, exp_curve):
        a = characteristic_area(exp_curve, 10.0)
        j = characteristic_jensen(exp_curve, 10.0)
        assert abs(a - j) < 1e-6


class TestAreaRoute:
    def test_line_closed_form(self, line_curve):
        # T(r) = (1/2) log(1 + r^2) via the Jensen-route oracle
        for r in (0.01, 0.5, 1.0, 10.0, 40.0):
            assert characteristic_area(line_curve, r) == pytest.approx(
                0.5 * math.log1p(r * r), abs=1e-10)

    def test_constant_curve(self, constant_curve):
        assert characteristic_area(constant_curve, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_exp_closed_form_oracle(self, exp_curve):
        # oracle: (1/2pi) int log sqrt(1 + e^{2 Re z}) over |z| = r, minus log sqrt(2)
        from curvelab.quadrature import periodic_trapezoid
        r = 10.0
        oracle = periodic_trapezoid(
            lambda z: 0.5 * np.logaddexp(0.0, 2 * z.real), [r], 1e-10
        )[0] / (2 * math.pi) - math.log(math.sqrt(2))
        assert characteristic_area(exp_curve, r) == pytest.approx(oracle, abs=1e-6)
        # r/pi is the leading asymptotic term; the offset is O(1)
        assert abs(characteristic_area(exp_curve, r) - r / math.pi) < 0.5


class TestCountingFunction:
    def test_line_closed_form(self, line_curve):
        # n(t) = t^2/(1+t^2) by the closed-form radial integral
        for t in (0.01, 0.5, 1.0, 10.0, 40.0):
            assert counting_function(line_curve, t) == pytest.approx(
                t * t / (1 + t * t), abs=1e-12)

    def test_constant_curve(self, constant_curve):
        assert counting_function(constant_curve, 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_characteristic_derivative(self, exp_curve):
        t, h = 10.0, 1e-3
        fd = (characteristic_jensen(exp_curve, t * math.exp(h))
              - characteristic_jensen(exp_curve, t * math.exp(-h))) / (2 * h)
        assert counting_function(exp_curve, t) == pytest.approx(fd, rel=0.01)


class TestReducedCharacteristic:
    def test_single_component_zero(self, line_curve):
        assert reduced_characteristic(line_curve, 4.0) == pytest.approx(0.0, abs=1e-12)

    def test_half_line_max(self):
        polys = [ComplexPoly([0, 1]), ComplexPoly([])]
        for r in (1.0, 3.0, 10.0):
            assert reduced_characteristic_polys(polys, r) == pytest.approx(
                r / math.pi, abs=1e-12)

    def test_abs_square_max(self):
        polys = [ComplexPoly([0, 0, 1]), ComplexPoly([0, 0, -1])]
        for r in (1.0, 2.0, 5.0):
            assert reduced_characteristic_polys(polys, r) == pytest.approx(
                2 * r * r / math.pi, abs=1e-10)

    def test_circle_mean_no_kinks(self):
        polys = [ComplexPoly([1, 1]), ComplexPoly([])]
        # Re(1 + z) > 0 on |z| = 0.5: mean is Re at center
        assert circle_mean_max_re(polys, 0.5) == pytest.approx(1.0, abs=1e-12)


DENSE_NODES = 1 << 18


def _dense_circle(r, nodes=DENSE_NODES):
    theta = 2 * np.pi * np.arange(nodes) / nodes
    return theta, r * np.exp(1j * theta)


def _sign_changes(poly, r):
    return circle_sign_changes([poly, ComplexPoly()], r)[2]


def _dense_sign_changes(poly, r, nodes=1 << 16):
    """Sign changes of Re poly on the circle from a dense scan, each bracket
    refined by bisection."""
    theta, z = _dense_circle(r, nodes)
    positive = np.asarray(poly(z)).real > 0
    idx = np.nonzero(positive != np.roll(positive, -1))[0]
    lo, hi = theta[idx], theta[idx] + 2 * np.pi / nodes
    lo_positive = positive[idx]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = (np.asarray(poly(r * np.exp(1j * mid))).real > 0) == lo_positive
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _random_reduced_polys(rng):
    """P_1, ..., P_n with n <= 6, deg P_j <= 4 and P_n = 0, as for a curve."""
    n = int(rng.integers(2, 7))
    polys = []
    for _ in range(n - 1):
        deg = int(rng.integers(0, 5))
        polys.append(ComplexPoly(0.5 * (rng.normal(size=deg + 1)
                                        + 1j * rng.normal(size=deg + 1))))
    return polys + [ComplexPoly([])]


def _missed_switch_case():
    """n = 6, deg P_j = 4 at r = 2: a 64-point seed scan finds 13 of the 16
    arg-max switches and misses T* by 2e-3 relative."""
    rng = np.random.default_rng(3)
    polys = [ComplexPoly(0.5 * (rng.normal(size=5) + 1j * rng.normal(size=5)))
             for _ in range(5)]
    return polys + [ComplexPoly([])], 2.0


def _root_finder_cases():
    rng = np.random.default_rng(2024)
    cases = [_missed_switch_case()]
    cases += [(_random_reduced_polys(rng), float(rng.uniform(0.5, 30.0))) for _ in range(40)]
    return cases


def _high_degree_cases():
    """Pairs whose difference has degree 5 to 12 (100 cases) or 13 to 60 (15),
    as specs allow at sigma up to 29, on circles of radius 0.2 to 60, and
    1 + z^d at r = 2 for d = 40, 41, 64, whose terms there are 2^d apart."""
    rng = np.random.default_rng(2026)
    cases = [([ComplexPoly([1.0] + [0.0] * (d - 1) + [1.0]), ComplexPoly()], 2.0) for d in (40, 41, 64)]
    for lowest, highest, count in ((5, 12, 100), (13, 60, 15)):
        for _ in range(count):
            deg = int(rng.integers(lowest, highest + 1))
            low = int(rng.integers(0, deg))
            polys = [ComplexPoly(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)) for n in (deg, low)]
            cases.append((polys, float(np.exp(rng.uniform(np.log(0.2), np.log(60.0))))))
    return cases


def _circle_mean_per_arc(polys, r):
    """circle_mean_max_re at one radius with a Python loop over the arcs and
    over each winner's coefficients."""
    cuts = np.unique(np.concatenate([[0.0]] + [
        _sign_changes(polys[i] - polys[j], r)
        for i in range(len(polys)) for j in range(i + 1, len(polys))]))
    ends = np.append(cuts[1:], 2 * np.pi)
    mids = r * np.exp(0.5j * (cuts + ends))
    winners = np.argmax([np.asarray(p(mids)).real for p in polys], axis=0)
    total = 0.0
    for j, a, b in zip(winners, cuts, ends):
        for k, c in enumerate(polys[j].coeffs):
            if k == 0:
                total += (c * (b - a)).real
            else:
                total += (c * r ** k * (np.exp(1j * k * b) - np.exp(1j * k * a)) / (1j * k)).real
    return total / (2 * np.pi)


class TestCircleRootFinder:
    def test_roots_match_dense_scan(self):
        for polys, r in _root_finder_cases() + _high_degree_cases():
            for i in range(len(polys)):
                for j in range(i + 1, len(polys)):
                    diff = polys[i] - polys[j]
                    roots = _sign_changes(diff, r)
                    dense = _dense_sign_changes(diff, r)
                    assert len(roots) == len(dense), (r, diff)
                    for t in roots:
                        gap = np.abs(np.angle(np.exp(1j * (dense - t))))
                        assert gap.min() <= 1e-10, (r, diff, t)

    def test_circle_mean_matches_dense_mean(self):
        for polys, r in _root_finder_cases():
            _, z = _dense_circle(r)
            dense = float(np.mean(np.max([np.asarray(p(z)).real for p in polys], axis=0)))
            assert circle_mean_max_re(polys, r) == pytest.approx(dense, rel=1e-9)
            # one call over an array of radii matches the per-arc loop at each radius
            radii = np.array([r, 0.5 * r, 2.0 * r, 0.1])
            per_radius = [_circle_mean_per_arc(polys, s) for s in radii]
            assert circle_mean_max_re(polys, radii) == pytest.approx(
                per_radius, rel=1e-14, abs=1e-14)


class TestMonotonicityAndTable:
    def test_monotone_both_routes(self, product_curve):
        radii = [1.0, 2.0, 4.0, 8.0]
        tj = [characteristic_jensen(product_curve, r) for r in radii]
        ta = [characteristic_area(product_curve, r) for r in radii]
        assert all(a < b for a, b in zip(tj, tj[1:]))
        assert all(a < b for a, b in zip(ta, ta[1:]))

    def test_table_cross_check_and_csv(self, line_curve):
        table = build_table(line_curve, [1.0, 2.0, 4.0])
        assert table.to_csv().splitlines()[0] == "r,T_area,T_jensen,n_t"
        assert len(table.radii) == 3
        assert all(abs(a - j) <= 1e-6 for a, j in zip(table.T_area, table.T_jensen))
        assert table.n_counting == sorted(table.n_counting)

    def test_growth_ceiling_doubling(self, exp_curve, square_exp_curve):
        # unconditional order bound: T(2r)/T(r) <= 2^{2 sigma + 2} * 1.1 at the tail
        for curve in (exp_curve, square_exp_curve):
            r = 10.0
            ratio = characteristic_jensen(curve, 2 * r) / characteristic_jensen(curve, r)
            assert ratio <= 2 ** (2 * curve.sigma + 2) * 1.1


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = ("exp", "line", "product2", "squareexp")


def _n_by_radial_derivative(curve, r, nodes=1 << 16):
    """n(r) = (1/2pi) * circle integral of r du/dr, a third route: with
    w_j = |f_j|^2/||f||^2, r du/dr = sum_j w_j Re(z f_j'/f_j). The weights are
    a softmax of 2 log|f_j| and the integral a dense periodic trapezoid."""
    z = r * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    logs = 2.0 * np.stack([c.log_modulus(z) for c in curve.components])
    weights = np.exp(logs - logs.max(axis=0))
    weights /= weights.sum(axis=0)
    radial = np.stack([(z * c.log_derivative(z)).real for c in curve.components])
    return float(np.mean(np.sum(weights * radial, axis=0)))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_counting_function_matches_radial_derivative_route(name):
    curve = load_curve(FIXTURES / f"{name}.json")
    radii = [1.0, 2.0, 5.0, 10.0]
    table = build_table(curve, radii)
    for r, n_table in zip(radii, table.n_counting):
        assert n_table == pytest.approx(_n_by_radial_derivative(curve, r), rel=1e-7, abs=0.0)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_batched_jensen_matches_scalar_calls(name):
    # every radius is a row of one batched trapezoid that stops where the
    # one-radius call stops, so the values agree bit for bit
    curve = load_curve(FIXTURES / f"{name}.json")
    radii = np.array([0.3, 1.0, 2.5, 7.0, 13.0, 20.0])
    batched = characteristic_jensen(curve, radii)
    assert isinstance(batched, np.ndarray) and batched.shape == radii.shape
    scalar = [characteristic_jensen(curve, r) for r in radii]
    assert batched.tolist() == scalar
    assert all(isinstance(value, float) for value in scalar)
    for r, value in zip(radii, scalar):
        assert characteristic_jensen(curve, np.array([r])).tolist() == [value]


@pytest.mark.parametrize("radii", [0.0, -1.0, [1.0, 0.0], np.array([2.0, -3.0, 4.0])])
def test_jensen_rejects_nonpositive_radius(exp_curve, radii):
    with pytest.raises(ValueError, match="positive"):
        characteristic_jensen(exp_curve, radii)


def mean_max_re(curve, r):
    return circle_mean_max_re(curve.reduced_polys(), r)


def reduced_of_polys(curve, r):
    return reduced_characteristic_polys(curve.reduced_polys(), r)


T_STAR_ROUTES = [reduced_characteristic, reduced_of_polys, mean_max_re]


@pytest.mark.parametrize("route", [characteristic_area, characteristic_jensen, counting_function,
                                   *T_STAR_ROUTES])
@pytest.mark.parametrize("radii", [math.nan, math.inf, [1.0, math.inf]])
def test_routes_reject_nonfinite_radius(product_curve, route, radii):
    with pytest.raises(ValueError, match="positive and finite"):
        route(product_curve, radii)


@pytest.mark.parametrize("route", T_STAR_ROUTES)
@pytest.mark.parametrize("radii", [0.0, -2.0, [1.0, -2.0]])
def test_t_star_rejects_nonpositive_radius(product_curve, route, radii):
    # as the area and Jensen routes do: -2 would read the circle of radius 2
    with pytest.raises(ValueError, match="positive and finite"):
        route(product_curve, radii)


# circles per radius that the radial pass reads on the fixtures, the same
# as when the depth-first panel rule read them one panel (15 circles) at a time
PASS_CIRCLES = {("exp", 2.0): 180, ("exp", 10.0): 180, ("line", 2.0): 180, ("line", 10.0): 240,
                ("product2", 2.0): 180, ("product2", 10.0): 180,
                ("squareexp", 2.0): 180, ("squareexp", 10.0): 180}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("r", [2.0, 10.0])
def test_radial_integrals_read_few_circles(name, r, monkeypatch):
    # in t = sqrt(s/r) the log weight no longer drives the panels toward
    # s = 0 (180-240 circles here, against 780-1140 when integrating in s),
    # and T_area(r) and n(r) come from one pass over the same circles, read
    # in one periodic_trapezoid call for the initial panels and one for each
    # refinement level (12-16 calls when each panel was its own call)
    original, calls = curvelab.characteristic.periodic_trapezoid, []

    def counted(f, radii, tol):
        calls.append(radii.size)
        return original(f, radii, tol)

    monkeypatch.setattr(curvelab.characteristic, "periodic_trapezoid", counted)
    curvelab.characteristic._disk_integrals(
        load_curve(FIXTURES / f"{name}.json"), [r], DEFAULT_TOL)
    assert len(calls) <= 3
    assert sum(calls) == PASS_CIRCLES[name, r] <= 300


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_radial_pass_matches_depth_first_rule(name, monkeypatch):
    # the level-by-level panels give T_area and n to the last bit of the
    # depth-first rule (summing the panels in another order moves them)
    curve, radii = load_curve(FIXTURES / f"{name}.json"), [0.5, 2.0, 10.0]
    levels = curvelab.characteristic._disk_integrals(curve, radii, DEFAULT_TOL)
    monkeypatch.setattr(curvelab.characteristic, "adaptive_gauss",
                        lambda *args: _depth_first(*args)[0])
    depth_first = curvelab.characteristic._disk_integrals(curve, radii, DEFAULT_TOL)
    assert [v.tolist() for v in levels] == [v.tolist() for v in depth_first]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_disk_routes_take_arrays(name):
    # an array of radii runs one adaptive pass per radius, as the scalar
    # calls do, so the values agree bit for bit
    curve = load_curve(FIXTURES / f"{name}.json")
    radii = np.array([0.3, 2.5, 13.0])
    for route in (characteristic_area, counting_function):
        batched = route(curve, radii)
        assert isinstance(batched, np.ndarray) and batched.shape == radii.shape
        scalar = [route(curve, r) for r in radii]
        assert batched.tolist() == scalar
        assert all(isinstance(value, float) for value in scalar)


def test_area_and_jensen_agree_on_product2():
    curve = load_curve(FIXTURES / "product2.json")
    radii = np.geomspace(1.0, 20.0, 16)
    area = characteristic_area(curve, radii)
    assert np.max(np.abs(area - characteristic_jensen(curve, radii))) <= 1e-9
