import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from curvelab import load_curve, quadrature
from curvelab.errors import QuadratureBudgetError
from curvelab.quadrature import (CHUNK_POINTS, N_START, _G7_WEIGHTS, _GK_NODES, _GK_WEIGHTS,
                                 _level_nodes, _trapezoid_levels, adaptive_gauss, kronrod_panels,
                                 periodic_trapezoid)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _pole(z):
    """1/(2 - Re z): analytic on |z| = r < 2, with a pole nearing the circle
    as r -> 2; its circle integral is 2 pi / sqrt(4 - r^2)."""
    return 1.0 / (2.0 - z.real)


# from a trigonometric polynomial's worth of nodes to thousands
RADII = np.array([0.1, 0.5, 1.0, 1.5, 1.9, 1.99])


def _exact(radii):
    return 2 * math.pi / np.sqrt(4.0 - np.asarray(radii) ** 2)


def _counting(f, radii, counts, shapes=None):
    """f, counting the points of each circle by its nearest radius."""
    def counted(z):
        if shapes is not None:
            shapes.append(z.shape)
        for row in z:
            counts[float(radii[np.argmin(np.abs(radii - abs(row[0])))])] += row.size
        return f(z)
    return counted


class TestPeriodicTrapezoid:
    def test_closed_form(self):
        values = periodic_trapezoid(_pole, RADII, 1e-12)
        assert values.shape == RADII.shape
        np.testing.assert_allclose(values, _exact(RADII), rtol=1e-11)

    def test_batch_rows_match_one_row_calls(self):
        tol = 1e-12
        batch_counts, alone_counts = Counter(), Counter()
        batched = periodic_trapezoid(_counting(_pole, RADII, batch_counts), RADII, tol)
        for r, value in zip(RADII, batched):
            alone = periodic_trapezoid(_counting(_pole, RADII, alone_counts), [r], tol)
            assert alone.tolist() == [value]
        # each radius stops at its own level, so it sees exactly its own points
        assert batch_counts == alone_counts
        assert len(set(alone_counts.values())) >= 3

    def test_one_row_batch_is_the_scalar_rule(self):
        # the textbook doubling rule on one circle, summed the same way
        for r in (0.5, 1.9):
            n, total, previous = 64, 0.0, math.inf
            theta = np.arange(n) * (2 * math.pi / n)
            while True:
                total += _pole(r * np.exp(1j * theta)).sum()
                estimate = total * (2 * math.pi / n)
                if abs(estimate - previous) <= 1e-12 * max(1.0, abs(estimate)):
                    break
                previous = estimate
                theta = np.arange(n) * (2 * math.pi / n) + math.pi / n
                n *= 2
            assert periodic_trapezoid(_pole, [r], 1e-12).tolist() == [estimate]

    def test_budget_below_start_raises_budget_error(self, monkeypatch):
        # N_MAX at or below the first level: its estimate, with error inf
        for n_max in (16, 64):
            monkeypatch.setattr(quadrature, "N_MAX", n_max)
            with pytest.raises(QuadratureBudgetError) as info:
                periodic_trapezoid(lambda z: np.ones(z.shape), [1.0], 1e-10)
            assert info.value.estimate == pytest.approx(2 * math.pi, rel=1e-15)
            assert info.value.error_bound == math.inf

    def test_batch_budget_below_start_raises_budget_error(self, monkeypatch):
        monkeypatch.setattr(quadrature, "N_MAX", 32)
        with pytest.raises(QuadratureBudgetError) as info:
            periodic_trapezoid(lambda z: z.real ** 2, [2.0, 3.0], 1e-10)
        assert info.value.estimate == pytest.approx(4 * math.pi, rel=1e-15)
        assert info.value.error_bound == math.inf

    def test_exhausted_row_raises_with_its_own_estimate(self, monkeypatch):
        radii = np.insert(RADII, 2, 1.99999)
        monkeypatch.setattr(quadrature, "N_MAX", 1024)
        with pytest.raises(QuadratureBudgetError) as alone:
            periodic_trapezoid(_pole, [1.99999], 1e-12)
        with pytest.raises(QuadratureBudgetError) as batch:
            periodic_trapezoid(_pole, radii, 1e-12)
        assert batch.value.estimate == alone.value.estimate
        assert batch.value.error_bound == alone.value.error_bound

    def test_levels_split_into_bounded_calls(self):
        # 300 circles: even the first level is more points than one call holds
        radii = np.append(np.linspace(0.1, 1.9, 299), 1.99999)
        shapes = []
        periodic_trapezoid(_counting(_pole, radii, Counter(), shapes), radii, 1e-12)
        per_call = CHUNK_POINTS // 64
        assert shapes[:3] == [(per_call, 64), (per_call, 64), (radii.size - 2 * per_call, 64)]
        # a few circles per call, or one alone once its level exceeds the bound
        assert all(k * n <= CHUNK_POINTS or k == 1 for k, n in shapes)
        assert max(n for _, n in shapes) > CHUNK_POINTS


def _levels_per_chunk(f, radii, tol, n_max):
    """_trapezoid_levels with e^{i theta} computed again for every chunk of
    every level, as the rule did before its level nodes were cached."""
    radii = np.asarray(radii, dtype=float)
    totals = np.zeros(radii.size)
    integrals = np.full(radii.size, np.inf)
    errors = np.full(radii.size, np.inf)
    running = np.arange(radii.size)
    n = N_START
    theta = np.arange(n) * (2 * np.pi / n)
    while True:
        per_call = max(1, CHUNK_POINTS // theta.size)
        for start in range(0, running.size, per_call):
            rows = running[start:start + per_call]
            totals[rows] += np.asarray(f(radii[rows, None] * np.exp(1j * theta))).sum(axis=1)
        new = totals[running] * (2 * np.pi / n)
        errors[running] = np.abs(new - integrals[running])
        integrals[running] = new
        running = running[~(errors[running] <= tol * np.maximum(1.0, np.abs(new)))]
        if not running.size or n >= n_max:
            return integrals, errors, running
        theta = np.arange(n) * (2 * np.pi / n) + np.pi / n
        n *= 2


@pytest.mark.identity
class TestCachedLevelNodes:
    # squareexp's circles out to r = 40 reach 2^15 angles; at tol 1e-12 the
    # one at r = 60 is still running at n_max = 2^16
    @pytest.mark.parametrize("integrand, radii, tol", [
        ("sd", [0.5, 5.0, 20.0], 1e-9),
        ("u", [0.5, 5.0, 20.0, 40.0], 1e-8),
        ("u", [2.0, 40.0, 60.0], 1e-12)])
    def test_levels_match_per_chunk_nodes(self, integrand, radii, tol):
        curve = load_curve(FIXTURES / "squareexp.json")
        f = curve.u if integrand == "u" else (lambda z: curve.spherical_derivative(z, squared=True))
        widths = []

        def counted(z):
            widths.append(z.shape[1])
            return f(z)

        got = _trapezoid_levels(counted, radii, tol, 1 << 16)
        want = _levels_per_chunk(f, radii, tol, 1 << 16)
        assert max(widths) >= CHUNK_POINTS     # a level of n >= 2 CHUNK_POINTS angles
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_nodes_read_only(self):
        for n in (N_START, 2 * N_START, 4 * CHUNK_POINTS):
            nodes = _level_nodes(n)
            assert nodes.size == (n if n == N_START else n // 2)
            assert not nodes.flags.writeable
            with pytest.raises(ValueError):
                nodes[0] = 0.0


def _peak(x):
    return 1.0 / ((x - 0.3) ** 2 + 1e-4)


def _two_columns(x):
    return np.stack([np.exp(x), _peak(x)], axis=1)


def _depth_first(f, a, b, tol, max_panels=4096):
    """The depth-first panel rule, one panel's 15 nodes per call: (value,
    panels whose halves it evaluated, by depth)."""
    nodes, weights = np.polynomial.legendre.leggauss(15)

    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        return half * np.dot(weights, f(0.5 * (lo + hi) + half * nodes))

    edges = np.linspace(a, b, 5)
    stack = [(edges[i], edges[i + 1], panel(edges[i], edges[i + 1]), 0) for i in range(4)]
    total, used, opened = 0.0, 4, Counter()
    while stack:
        lo, hi, whole, depth = stack.pop()
        opened[depth] += 1
        mid = 0.5 * (lo + hi)
        left, right = panel(lo, mid), panel(mid, hi)
        err = np.max(np.abs(left + right - whole))
        if err <= tol * (hi - lo) / (b - a) or (hi - lo) < 1e-14 * abs(b - a):
            total += left + right
            continue
        used += 2
        if used > max_panels:
            raise QuadratureBudgetError("panel budget exhausted", total, err)
        stack += [(lo, mid, left, depth + 1), (mid, hi, right, depth + 1)]
    return total, opened


def _area_weights(x):
    # the two radial weights of the area route, t^3 log t and t^3
    return np.stack([x ** 3 * np.log(x), x ** 3], axis=1)


class TestAdaptiveGauss:
    @pytest.mark.parametrize("f, tol, depth", [(np.exp, 1e-13, 1), (_peak, 1e-9, 5),
                                               (_two_columns, 1e-9, 5),
                                               (_area_weights, 1e-12, 2)])
    def test_level_nodes_in_one_call(self, f, tol, depth):
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return f(x)

        value = adaptive_gauss(counted, 0.0, 1.0, tol)
        expected, opened = _depth_first(f, 0.0, 1.0, tol)
        # bit for bit: a tensordot over the panels moves _area_weights
        assert type(value) is type(expected) and np.shape(value) == np.shape(expected)
        assert np.array_equal(value, expected)
        # the initial panels, then the halves of every open panel of each depth
        assert all(size % 15 == 0 for size in sizes)
        assert sizes == [4 * 15] + [2 * 15 * opened[d] for d in range(len(opened))]
        assert sorted(opened) == list(range(depth))
        if f is np.exp:
            assert value == pytest.approx(math.e - 1, abs=1e-13)

    def test_budget_as_depth_first(self, monkeypatch):
        def f(x):
            return 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0))

        monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
        with pytest.raises(QuadratureBudgetError):
            adaptive_gauss(f, 0.0, 1.0, 1e-12)
        with pytest.raises(QuadratureBudgetError):
            _depth_first(f, 0.0, 1.0, 1e-12, max_panels=64)

    def test_trailing_axis_integrands(self):
        # a smooth and a peaked integrand on the same panels: the peak drives
        # the splits, and each component meets the tolerance
        def f(x):
            return np.stack([np.exp(x), 1.0 / ((x - 0.3) ** 2 + 1e-4)], axis=1)

        value = adaptive_gauss(f, 0.0, 1.0, 1e-9)
        assert value.shape == (2,)
        peak = (math.atan(0.7 / 1e-2) + math.atan(0.3 / 1e-2)) / 1e-2
        assert abs(value[0] - (math.e - 1)) <= 1e-13
        assert abs(value[1] - peak) <= 1e-9
        assert np.ndim(adaptive_gauss(np.exp, 0.0, 1.0, 1e-9)) == 0

    def test_error_within_tolerance(self):
        # a peak of width 1e-2 forces refinement around x = 0.3
        exact = (math.atan(0.7 / 1e-2) + math.atan(0.3 / 1e-2)) / 1e-2
        value = adaptive_gauss(lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-4), 0.0, 1.0, 1e-9)
        assert abs(value - exact) <= 1e-9

    def test_panel_budget(self, monkeypatch):
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0))

        monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
        with pytest.raises(QuadratureBudgetError) as info:
            adaptive_gauss(f, 0.0, 1.0, 1e-12)
        exact = 2 * (math.sqrt(1 / 3) + math.sqrt(2 / 3))
        assert abs(info.value.estimate - exact) < 0.1
        assert info.value.error_bound > 0.0
        # each of the at most 64/2 splits evaluates two halves, and so does
        # each of the at most splits + 2 accepted panels
        assert len(calls) <= 8 + 2 * 64


def _rows_peak(rows):
    # 1/((Re x - 0.3)^2 + 1e-4) + Im x at the nodes of each panel row
    x = rows[:, 1:-1]
    return 1.0 / ((x.real - 0.3) ** 2 + 1e-4) + x.imag


def _masked_peak(rows):
    # _rows_peak at the nodes of each panel row, with a mask that holds everywhere
    return _rows_peak(rows), np.ones(len(rows), dtype=bool)


def _quarters(a, b):
    """(k, lo, hi): each interval [a[i], b[i]] cut into four equal panels."""
    t = np.arange(4) / 4
    lo = (a[:, None] + t * (b - a)[:, None]).reshape(-1)
    hi = (a[:, None] + (t + 0.25) * (b - a)[:, None]).reshape(-1)
    return np.repeat(np.arange(a.size), 4), lo, hi


class TestKronrodPanels:
    def test_qk15_constants(self):
        # the Gauss nodes and weights are leggauss(7)'s; K15 integrates x^k
        # exactly up to k = 22 and G7 up to k = 13
        nodes, weights = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(_GK_NODES[1::2], nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_G7_WEIGHTS, weights, rtol=0, atol=1e-15)
        assert np.all(np.diff(_GK_NODES) > 0) and _GK_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-15)
        for k in range(23):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(_GK_WEIGHTS @ _GK_NODES ** k - exact) <= 1e-15
            if k <= 13:
                assert abs(_G7_WEIGHTS @ _GK_NODES[1::2] ** k - exact) <= 1e-15
        # and neither rule is exact one degree further
        assert abs(_GK_WEIGHTS @ _GK_NODES ** 24 - 2.0 / 25) > 1e-12
        assert abs(_G7_WEIGHTS @ _GK_NODES[1::2] ** 14 - 2.0 / 15) > 1e-6

    @pytest.mark.identity
    def test_each_interval_to_its_own_tolerance(self):
        # two real intervals and a segment parallel to the real axis
        a, b = np.array([0.0, 0.0, 2j]), np.array([1.0, 2.0, 1.0 + 2j])
        tol = np.array([1e-9, 1e-8, 1e-9])
        k, lo, hi = _quarters(a, b)
        values = kronrod_panels(_masked_peak, a, k, lo, hi, tol)
        assert values.shape == (3,) and values.dtype == float

        def peak(hi):
            return (math.atan((hi - 0.3) / 1e-2) + math.atan(0.3 / 1e-2)) / 1e-2

        exact = [peak(1.0), peak(2.0), peak(1.0) + 2.0]
        assert np.all(np.abs(values - exact) <= tol)
        # an interval's value does not depend on the intervals beside it, nor
        # on the order its panels come in
        for i in range(3):
            mine = np.flatnonzero(k == i)[::-1]
            alone = kronrod_panels(_masked_peak, a[i:i + 1], np.zeros_like(mine), lo[mine], hi[mine],
                                   tol[i:i + 1])
            assert alone.tolist() == [values[i]]

    def test_mask_splits_panels_whose_estimate_passes(self):
        calls = []

        def flat(rows, masked):
            calls.append(len(rows))
            width = (rows[:, -1] - rows[:, 0]).real
            return np.ones(rows[:, 1:-1].shape), (width < 1 / 64) | (not masked)

        one = (np.array([0.0]), np.array([0]), np.array([0.0]), np.array([1.0]))
        plain = kronrod_panels(lambda rows: flat(rows, False), *one, 1e-12)
        assert calls == [1]
        calls.clear()
        masked = kronrod_panels(lambda rows: flat(rows, True), *one, 1e-12)
        # a panel is accepted once it is narrower than 1/64: the level of width 1/128
        assert calls == [1, 2, 4, 8, 16, 32, 64, 128]
        assert plain.tolist() == [pytest.approx(1.0, abs=1e-15)]
        assert masked.tolist() == [pytest.approx(1.0, abs=1e-13)]

    def test_levels_split_into_bounded_calls(self):
        sizes = []

        def counted(rows):
            sizes.append(rows.size)
            return np.exp(rows[:, 1:-1].real), np.ones(len(rows), dtype=bool)

        a = np.linspace(0.0, 1.0, 600)
        values = kronrod_panels(counted, a, *_quarters(a, a + 1.0), 1e-12)
        np.testing.assert_allclose(values, np.exp(a) * (math.e - 1), rtol=1e-13)
        assert max(sizes) <= CHUNK_POINTS < sum(sizes[:2])
