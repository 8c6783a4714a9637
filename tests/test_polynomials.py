import math

import numpy as np
import pytest

from curvelab.polynomials import (ComplexPoly, cauchy_fraction, circle_sign_changes, horner,
                                  running_rows, stack)


def test_trimming_and_degree():
    p = ComplexPoly([1, 2, 0, 0])
    assert p.degree() == 1
    assert ComplexPoly([]).degree() == -math.inf
    assert ComplexPoly([0, 0]).is_zero


def test_eval_scalar_and_array():
    p = ComplexPoly([1, 0, 1])  # 1 + z^2
    assert p(2.0) == pytest.approx(5.0)
    z = np.array([0.0, 1j, 2.0])
    assert np.allclose(p(z), [1.0, 0.0, 5.0])


def test_arithmetic():
    z = ComplexPoly([0, 1])
    p = z * z + 1
    assert p.coeffs == (1, 0, 1)
    assert (p - p).is_zero
    assert p.deriv().coeffs == (0, 2)
    assert (2 * z).coeffs == (0, 2)


def test_zero_polynomial_evaluation():
    zero = ComplexPoly([])
    assert zero(3.0) == 0
    assert np.all(zero(np.array([1.0, 2.0])) == 0)
    assert zero.deriv().is_zero


STACKS = {
    "zero": [ComplexPoly()],
    "constants": [ComplexPoly([2.5]), ComplexPoly([-1j]), ComplexPoly()],
    "mixed_widths": [ComplexPoly([1, 2j, -3]), ComplexPoly([0.5]), ComplexPoly(),
                     ComplexPoly([0, 0, 0, 0, 1 - 1j]), ComplexPoly([-2, 0.25 + 4j])],
}


@pytest.mark.parametrize("shape", ["shared", "per_row", "empty"])
@pytest.mark.parametrize("name", list(STACKS))
def test_horner_matches_each_polynomial(name, shape):
    polys = STACKS[name]
    rng = np.random.default_rng(len(polys))
    # z of shape (N,), the same points on every row, or (rows, N), each row's own
    size = {"shared": (7,), "per_row": (len(polys), 7), "empty": (0,)}[shape]
    z = 3 * (rng.normal(size=size) + 1j * rng.normal(size=size))
    got = horner(stack(polys), z)
    rows = z if z.ndim == 2 else [z] * len(polys)
    expected = np.stack([p(row) for p, row in zip(polys, rows)])
    # equal values, and so equal bits up to the sign of a zero part: polyval
    # adds z*0 to the top coefficient, where horner copies it
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_horner_running_rows_keep_the_bits():
    # widest first, the step for column k runs the rows with a coefficient at
    # k or above, and at least two: the rest hold the full loop's +0, and no
    # step multiplies a lone element, which numpy does without FMA
    coeffs = stack([ComplexPoly([0.3, -1j, 0.2, 1.7 - 0.4j, 0.9 + 1.1j]), ComplexPoly([1, 2j, -3]),
                    ComplexPoly([-2, 0.25 + 4j]), ComplexPoly([0.5]), ComplexPoly()])
    live = running_rows(coeffs)
    assert live == [4, 3, 2, 2, 2]
    rng = np.random.default_rng(3)
    z = 3 * (rng.normal(size=(5, 40)) + 1j * rng.normal(size=(5, 40)))
    assert horner(coeffs, z, live).tobytes() == horner(coeffs, z).tobytes()
    full = horner(coeffs, z[0])
    for k, point in enumerate(z[0]):
        assert horner(coeffs, point[None], live).tobytes() == full[:, k:k + 1].tobytes()


def test_cauchy_fraction():
    # z^2 - 3z + 2: roots within 1 + max(3, 2) = 4
    p = [2, -3, 1]
    assert cauchy_fraction(p) == 3.0
    assert cauchy_fraction([5]) == 0.0
    roots = np.roots([1, -3, 2])
    assert np.max(np.abs(roots)) <= 1 + cauchy_fraction(p)


def test_leading_of_zero_poly_raises():
    with pytest.raises(ValueError):
        _ = ComplexPoly([]).leading


def _sign_changes(poly, r):
    return circle_sign_changes([poly, ComplexPoly()], r)[2]


def _random_poly(rng, deg):
    return ComplexPoly(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))


def _poly_lists(rng):
    """The empty list, one poly alone, and lists of 2-6 polys of mixed degree
    holding a constant and a repeat of another entry (a zero difference)."""
    lists = [[], [_random_poly(rng, 3)]]
    for _ in range(40):
        polys = [_random_poly(rng, int(rng.integers(1, 5))) for _ in range(rng.integers(0, 4))]
        polys += [_random_poly(rng, 0), _random_poly(rng, int(rng.integers(1, 5)))]
        polys.insert(int(rng.integers(0, len(polys) + 1)), polys[-1])
        lists.append([polys[k] for k in rng.permutation(len(polys))])
    return lists


@pytest.mark.identity
def test_circle_sign_changes_over_radii_matches_one_radius():
    # radii from well inside to past r0, where the count of sign changes
    # varies from circle to circle
    rng = np.random.default_rng(3)
    varied = 0
    for _ in range(200):
        deg = int(rng.integers(1, 5))
        poly = ComplexPoly(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        r0 = 2.0 * (1.0 + cauchy_fraction((poly * poly.deriv()).coeffs))
        radii = np.sort(r0 * np.exp(rng.uniform(np.log(0.02), np.log(3.0), size=8)))
        pair, circle, theta = circle_sign_changes([poly, ComplexPoly()], radii)
        assert np.all(pair == 0)
        rows = [theta[circle == k] for k in range(len(radii))]
        for r, row in zip(radii, rows):
            assert np.array_equal(row, _sign_changes(poly, r))
        varied += len({len(row) for row in rows}) > 1
    assert varied > 50
    # every pair of a list on every circle in one call, against each pair on
    # each circle alone
    radii = np.array([0.05, 0.3, 1.0, 2.0, 5.0, 20.0])
    zero_pairs = 0
    for polys in _poly_lists(rng):
        pair, circle, theta = circle_sign_changes(polys, radii)
        assert np.array_equal(np.lexsort((theta, circle, pair)), np.arange(theta.size))
        first, second = np.triu_indices(len(polys), 1)
        assert np.all(pair < len(first))
        for p, (i, j) in enumerate(zip(first, second)):
            zero_pairs += polys[i] == polys[j]
            for k, r in enumerate(radii):
                expected = _sign_changes(polys[i] - polys[j], r)
                assert np.array_equal(theta[(pair == p) & (circle == k)], expected)
                assert expected.size == 0 or polys[i] != polys[j]
    assert zero_pairs >= 40


@pytest.mark.parametrize("polys", [[], [ComplexPoly([1, 2])], [ComplexPoly([1, 2]), ComplexPoly([3, 2])],
                                   [ComplexPoly(), ComplexPoly([2j]), ComplexPoly([1])]])
def test_circle_sign_changes_without_varying_pair(polys):
    # no pair difference varies (every n = 1 curve): three empty arrays of
    # the dtypes a nonempty result has
    nonempty = circle_sign_changes([ComplexPoly([0, 1]), ComplexPoly()], [1.0, 2.0])
    empty = circle_sign_changes(polys, [1.0, 2.0])
    assert [a.size for a in empty] == [0, 0, 0]
    assert [a.dtype for a in empty] == [a.dtype for a in nonempty] == [np.int64, np.int64, np.float64]
