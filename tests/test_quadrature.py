import math
from collections import Counter

import numpy as np
import pytest

from curvelab.errors import QuadratureBudgetError
from curvelab.quadrature import CHUNK_POINTS, adaptive_gauss, periodic_trapezoid

# Periodic integrands of increasing difficulty: a trigonometric polynomial,
# an entire function, and three with poles nearing the real axis.
ROWS = (
    lambda t: np.cos(3 * t) ** 2,
    lambda t: np.exp(np.cos(t)),
    lambda t: 1.0 / (1.2 - np.cos(t)),
    lambda t: 1.0 / (1.02 - np.cos(t)),
    lambda t: 1.0 / (1.002 - np.cos(t)),
)


def _counted(fn, counts, key):
    def f(theta):
        counts[key] += np.size(theta)
        return fn(theta)
    return f


def _batch(rows, counts):
    """A batched integrand over `rows` that counts the points of each row."""
    def f(theta):
        picked = getattr(theta, "rows", range(len(rows)))
        grid = np.asarray(theta)
        out = []
        for k, row in enumerate(picked):
            angles = grid if grid.ndim == 1 else grid[k]
            counts[row] += angles.size
            out.append(rows[row](angles))
        return np.array(out)
    return f


class TestPeriodicTrapezoid:
    def test_budget_below_start_raises_budget_error(self):
        with pytest.raises(QuadratureBudgetError) as info:
            periodic_trapezoid(lambda t: np.ones_like(t), 1e-10, n_start=64, n_max=64)
        assert info.value.estimate == pytest.approx(2 * math.pi, rel=1e-15)
        assert info.value.error_bound == math.inf

    def test_batch_budget_below_start_raises_budget_error(self):
        with pytest.raises(QuadratureBudgetError) as info:
            periodic_trapezoid(_batch(ROWS, Counter()), 1e-10, n_start=128, n_max=64)
        assert info.value.estimate == pytest.approx(math.pi, rel=1e-15)
        assert info.value.error_bound == math.inf

    def test_batch_rows_match_one_row_calls(self):
        tol = 1e-12
        batch_counts, alone_counts = Counter(), Counter()
        batched = periodic_trapezoid(_batch(ROWS, batch_counts), tol)
        assert batched.shape == (len(ROWS),)
        for row, fn in enumerate(ROWS):
            alone = periodic_trapezoid(_counted(fn, alone_counts, row), tol)
            assert batched[row] == alone
        # each row stops at its own level, so it sees exactly its own points
        assert batch_counts == alone_counts
        assert len(set(alone_counts.values())) >= 3

    def test_plain_integrand_gets_one_dimensional_angles(self):
        shapes = []

        def f(theta):
            # depends on the shape of its input: a (1, n) array would give 1
            shapes.append(np.shape(theta))
            return np.full(len(theta), 1.0 + np.cos(theta).mean())

        assert periodic_trapezoid(f, 1e-12) == pytest.approx(2 * math.pi, rel=1e-15)
        assert len(shapes) > 1 and all(len(shape) == 1 for shape in shapes)

    def test_one_row_batch_is_the_scalar_rule(self):
        batched = periodic_trapezoid(_batch(ROWS[-1:], Counter()), 1e-12)
        assert batched.shape == (1,)
        assert batched[0] == periodic_trapezoid(ROWS[-1], 1e-12)

    def test_exhausted_row_raises_with_its_own_estimate(self):
        rows = ROWS[:2] + (lambda t: 1.0 / (1.00001 - np.cos(t)),) + ROWS[2:]
        with pytest.raises(QuadratureBudgetError) as alone:
            periodic_trapezoid(rows[2], 1e-12, n_max=1024)
        with pytest.raises(QuadratureBudgetError) as batch:
            periodic_trapezoid(_batch(rows, Counter()), 1e-12, n_max=1024)
        assert batch.value.estimate == alone.value.estimate
        assert batch.value.error_bound == alone.value.error_bound

    def test_levels_split_into_bounded_calls(self):
        rows = ROWS + (lambda t: 1.0 / (1.000001 - np.cos(t)),)
        shapes = []

        def f(theta):
            shapes.append(np.shape(theta))
            return _batch(rows, Counter())(theta)

        periodic_trapezoid(f, 1e-12)
        assert shapes[0] == (64,)
        # past the first call: a few rows per call, or one row alone once its
        # level alone exceeds the bound
        assert all(k * n <= CHUNK_POINTS or k == 1 for k, n in shapes[1:])
        assert max(n for _, n in shapes[1:]) > CHUNK_POINTS


class TestAdaptiveGauss:
    def test_panel_nodes_in_one_call(self):
        sizes = []

        def f(x):
            sizes.append(np.size(x))
            return np.exp(x)

        value = adaptive_gauss(f, 0.0, 1.0, 1e-13)
        assert value == pytest.approx(math.e - 1, abs=1e-13)
        assert set(sizes) == {15}

    def test_error_within_tolerance(self):
        # a peak of width 1e-2 forces refinement around x = 0.3
        exact = (math.atan(0.7 / 1e-2) + math.atan(0.3 / 1e-2)) / 1e-2
        value = adaptive_gauss(lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-4), 0.0, 1.0, 1e-9)
        assert abs(value - exact) <= 1e-9

    def test_panel_budget(self):
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0))

        with pytest.raises(QuadratureBudgetError) as info:
            adaptive_gauss(f, 0.0, 1.0, 1e-12, max_panels=64)
        exact = 2 * (math.sqrt(1 / 3) + math.sqrt(2 / 3))
        assert abs(info.value.estimate - exact) < 0.1
        assert info.value.error_bound > 0.0
        # each of the at most 64/2 splits evaluates two halves, and so does
        # each of the at most splits + 2 accepted panels
        assert len(calls) <= 8 + 2 * 64
