"""Dense complex-coefficient polynomials in one complex variable.

Coefficients are stored ascending (index k holds the coefficient of z^k) and
trailing exact zeros are trimmed, so ``degree`` is the index of the last stored
coefficient. The zero polynomial has an empty coefficient tuple and degree -inf.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import polynomial as npoly


class ComplexPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [complex(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, c):
        return cls((c,))

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Index of the last nonzero coefficient; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_constant(self):
        return len(self.coeffs) <= 1

    # -- evaluation and calculus ----------------------------------------------

    def __call__(self, z):
        if not self.coeffs:
            z = np.asarray(z)
            out = np.zeros(z.shape, dtype=complex)
            return out if out.shape else complex(out)
        return npoly.polyval(z, np.asarray(self.coeffs, dtype=complex))

    def deriv(self):
        return ComplexPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return ComplexPoly(npoly.polyadd(np.asarray(self.coeffs), np.asarray(other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return ComplexPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return ComplexPoly(())
        return ComplexPoly(npoly.polymul(np.asarray(self.coeffs), np.asarray(other.coeffs)))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ComplexPoly):
            try:
                other = _coerce(other)
            except TypeError:
                return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"ComplexPoly({list(self.coeffs)!r})"


def _coerce(value):
    if isinstance(value, ComplexPoly):
        return value
    if isinstance(value, (int, float, complex)):
        return ComplexPoly((value,))
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


_NEWTON_STEPS = 3
_MAX_NEWTON_STEP = 1e-3  # larger steps leave the candidate where it is


@functools.lru_cache
def _cayley_tables(d):
    """phi_j = 2 pi j/(2d + 1), e^{ik phi_j} and e^{ik(phi_j + pi)}, (-1)^i and
    the fixed part -2 Im(F K F^H) of the folded Cayley matrix (see README)."""
    n, m = 2 * d, np.arange(d)
    phis = np.arange(2 * d + 1) * (2 * np.pi / (2 * d + 1))
    fold = np.zeros((n, n), dtype=complex)      # F
    fold[m, m] = fold[m, n - 1 - m] = 2 ** -0.5
    fold[d + m, m], fold[d + m, n - 1 - m] = 1j * 2 ** -0.5, -1j * 2 ** -0.5
    inverse = np.tril((-1.0) ** np.subtract.outer(np.arange(n), np.arange(n)))  # K = (I + N)^-1
    turns, sign = np.exp(1j * np.outer(phis, np.arange(d + 1))), (-1.0) ** np.arange(n)
    return phis, turns, turns * sign[:d + 1], sign, -2.0 * (fold @ inverse @ fold.conj().T).imag


def circle_angles(coeffs, radii) -> np.ndarray:
    """2d angles for each row p of ``coeffs`` (ascending coefficients of degree
    d >= 1) and each r in ``radii``, shape (rows, radii, 2d), among which are
    all zeros of Re p(r e^{i theta}), from one real eigenvalue solve.

    The zeros are phi plus the angles of the roots on |w| = 1 of
    w^d Re(sum_k p_k r^k e^{ik phi} w^k), eigenvalues of its companion C,
    whose Cayley transform has eigenvalues t = tan((theta - phi)/2) and,
    folded, is real: a fixed part plus a rank-one part (README, "Sign changes
    on a circle"). phi = phi_j makes |Re p(-r e^{i phi})|, and so det(I + C),
    largest. Each root t gives the angle phi + 2 arctan(Re t): roots off the
    circle add angles and lose none. Sums run per row and each matrix is
    solved alone, so each row and radius gets the same bits alone as in a
    stack (a matrix product may round a one-row product otherwise).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    d = coeffs.shape[1] - 1
    phis, turns, flips, sign, base = _cayley_tables(d)
    a = coeffs[:, None] * np.asarray(radii, dtype=float)[:, None] ** np.arange(d + 1)
    j = np.argmax(np.abs(np.einsum("...k,jk->...j", a, flips).real), axis=-1)
    a = a * turns[j]
    # all but the top coefficient of 2 w^d Re(sum_k a_k w^k); C's first row is
    # c_i = -w_poly[2d-1-i] / a_d, and c^T K / (1 + c^T K e_0) the rank-one row
    w_poly = np.concatenate([np.conj(a[..., :0:-1]), 2.0 * a[..., :1].real, a[..., 1:-1]], axis=-1)
    row = np.cumsum(w_poly * sign / a[..., -1:], axis=-1)[..., ::-1] * sign
    row = row / (1.0 + row[..., :1])
    low, high = row[..., :d], row[..., :d - 1:-1]
    rank_one = np.concatenate([(low + high).real, (low - high).imag], axis=-1)
    cayley = np.tile(base, row.shape[:2] + (1, 1))
    cayley[..., d:, :] += 2.0 * sign[:d, None] * rank_one[..., None, :]
    return phis[j][..., None] + 2.0 * np.arctan(np.linalg.eigvals(cayley).real)


def stack(polys):
    """Ascending coefficient rows of ``polys``, zero-padded to the longest (at
    least one column): the one layout that ``horner`` evaluates."""
    rows = np.zeros((len(polys), max([len(p.coeffs) for p in polys] + [1])), dtype=complex)
    for row, poly in enumerate(polys):
        rows[row, :len(poly.coeffs)] = poly.coeffs
    return rows


def pair_differences(polys):
    """(i, j, D, degree) for every pair i < j of ``polys`` in np.triu_indices
    order: D holds the rows P_i - P_j, laid out as by ``stack``, and degree
    the index of each row's last nonzero coefficient (0 for a constant)."""
    coeffs, index = stack(polys), np.arange(len(polys))
    first, second = np.nonzero(index[:, None] < index)     # np.triu_indices(len(polys), 1), faster
    diffs = coeffs[first] - coeffs[second]
    degree = np.max(np.where(diffs != 0, np.arange(coeffs.shape[1]), 0), axis=1, initial=0)
    return first, second, diffs, degree


def leading_hull(polys):
    """The far field (b, c0) of the locus of max_k Re P_k over ``polys``, for prop3 and trace_branches, from the
    convex hull of their coefficients a_k of the top degree D, 0 below it (Polya's indicator diagram): (D - 1, max
    over hull edges of D |a_i - a_j| / 2pi), each c as locus._columns forms c_k; (-inf, 0) for D = 0; None where
    lower-order terms decide (every a_k equal, or one strictly inside an edge). Andrew's monotone chain, on the a_k
    as integers times one power of two."""
    coeffs = stack(polys)
    top, a = coeffs.shape[1] - 1, np.unique(coeffs[:, -1]).tolist()     # sorted by real part, then imaginary
    if top == 0:
        return -math.inf, 0.0
    ratios = [v.as_integer_ratio() for p in a for v in (p.real, p.imag)]   # n / d, d a power of two
    scale = max(d for _, d in ratios)
    x, y = ([n * (scale // d) for n, d in ratios[part::2]] for part in (0, 1))    # exact cross products
    cross, lower, upper = lambda o, p, q: (x[p] - x[o]) * (y[q] - y[o]) - (y[p] - y[o]) * (x[q] - x[o]), [], []
    for hull, order in ((lower, range(len(a))), (upper, range(len(a) - 1, -1, -1))):
        for k in order:
            while len(hull) >= 2 and cross(hull[-2], hull[-1], k) <= 0:
                hull.pop()
            hull.append(k)
    edges = list(zip(lower[:-1] + upper[:-1], lower[1:] + upper[1:]))
    if len(a) < 2 or any(cross(i, j, k) == 0 for i, j in edges for k in range(len(a)) if k not in (i, j)):
        return None
    return top - 1.0, max(top * abs(a[i] - a[j]) / (2 * math.pi) for i, j in edges)


def running_rows(coeffs):
    """For each column k of a stack sorted widest first, how many leading rows
    have a nonzero coefficient at k or above: the rows still running at
    horner's step k. At least two (or all, if fewer), because numpy multiplies
    a lone complex element without the fused products (FMA) of its SIMD
    loops, so a one-row step at one point would round otherwise."""
    reach = np.logical_or.accumulate(coeffs[:, ::-1] != 0, axis=1)   # columns reversed
    counts = np.count_nonzero(reach, axis=0)[::-1]
    return np.maximum(counts, min(2, len(coeffs))).tolist()


def horner(coeffs, z, live=None):
    """The rows of ``coeffs``, laid out as by ``stack``, by Horner steps in place
    at the points z: shape (N,) for the same points on every row, or (rows, N)
    for each row's own. Returns (rows, N) complex values. They may differ from
    ``ComplexPoly.__call__`` at one point in the last bit: numpy's SIMD complex
    array multiply fuses its products (FMA) where the CPU has it (887 of 2,000
    random products differed on an AVX-512 Xeon, numpy 2.4.6).

    Every row starts from the stack's last column. With ``live`` (from
    ``running_rows``, for a stack sorted widest first) the step for column k
    updates only the first live[k] rows: the others hold the +0 that the full
    step would give them again, so every value keeps its bits."""
    shape = np.shape(z)    # the two layouts directly, without np.broadcast_shapes' microseconds
    acc = np.empty((len(coeffs), shape[-1]) if len(shape) == 1 or len(shape) == 2 and shape[0] in (1, len(coeffs))
                   else np.broadcast_shapes((len(coeffs), 1), shape), dtype=complex)
    acc[:] = coeffs[:, -1:]
    per_row = len(shape) == 2 and shape[0] > 1
    for k in range(coeffs.shape[1] - 2, -1, -1):
        rows = acc if live is None else acc[:live[k]]
        rows *= z[:len(rows)] if per_row else z
        rows += coeffs[:len(rows), k:k + 1]
    return acc


def refine_angles(coeffs, r, theta, slope=None):
    """Guarded Newton steps in theta on Re p(r e^{i theta}) = 0 for each angle
    of ``theta``, with p the matching row of ``coeffs`` (as ``stack`` lays them
    out) and r the matching radius; ``slope`` holds the rows of p' when the
    caller has them. A step of 1e-3 or more leaves the angle where it is."""
    slope = npoly.polyder(coeffs, axis=1) if slope is None else slope
    for _ in range(_NEWTON_STEPS):
        z = (r * np.exp(1j * theta))[:, None]
        h = horner(coeffs, z)[:, 0].real
        dh = -(z * horner(slope, z))[:, 0].imag
        with np.errstate(divide="ignore", invalid="ignore"):
            step = h / dh
        theta = np.where(np.abs(step) < _MAX_NEWTON_STEP, theta - step, theta)
    return theta


def circle_sign_changes(polys, radii):
    """Every angle theta in [0, 2pi) where Re(P_i - P_j)(r e^{i theta})
    changes sign, for each pair i < j of ``polys`` (np.triu_indices order)
    and each r in ``radii``: flat arrays (pair, circle, theta), sorted in that
    order, where circle indexes ``radii``.

    The pair differences of each degree share one ``circle_angles`` solve, and
    one Newton polish refines all its 2d candidate angles per pair and circle.
    The candidates cut each circle into arcs free of zeros, and a candidate is
    kept when the difference has opposite signs on the arcs either side of it,
    so tangent zeros and candidates that are no zero drop out.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    _, _, diffs, degree = pair_differences(polys)
    if not degree.any():    # no pair difference varies: no sign change, and no solve
        return np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0)
    group, theta = np.empty(0, dtype=int), np.empty(0)     # group = pair * len(radii) + circle
    for d in np.unique(degree[degree > 0]):
        rows = np.flatnonzero(degree == d)
        theta = np.append(theta, circle_angles(diffs[rows, :d + 1], radii))
        group = np.append(group, np.repeat(rows[:, None] * len(radii) + np.arange(len(radii)), 2 * d))
    pair, circle = np.divmod(group, len(radii))
    theta = np.mod(refine_angles(diffs[pair], radii[circle], theta), 2 * np.pi)
    # sorted by group, then angle, without repeats: complex numbers sort by real part first
    key = np.unique(group + 1j * theta)
    (pair, circle), theta = np.divmod(key.real.astype(int), len(radii)), key.imag
    # the arc after an angle ends at the next angle of its group, or wraps round to the first
    start, end = np.diff(key.real, prepend=-1) != 0, np.diff(key.real, append=-1) != 0
    g = np.cumsum(start) - 1
    mids = 0.5 * (theta + np.where(end, theta[start][g] + 2 * np.pi, np.roll(theta, -1)))
    z = radii[circle] * np.exp(1j * mids)
    positive = horner(diffs[pair], z[:, None])[:, 0].real > 0
    change = positive != np.where(start, positive[end][g], np.roll(positive, 1))
    return pair[change], circle[change], theta[change]


def circle_arcs(circle, angles, count):
    """(circle, a, b): the arcs [a, b] between consecutive cuts of ``count``
    circles, each cut at 0 and at the ``angles`` in [0, 2pi) on it (angles[i]
    on circle[i]), sorted by circle, then angle, with no cut repeated; each
    circle's last arc ends at 2pi."""
    # complex numbers sort by real part first
    key = np.unique(np.append(np.arange(count), circle) + 1j * np.append(np.zeros(count), angles))
    circle, a = key.real.astype(int), key.imag
    return circle, a, np.where(np.append(circle[1:] != circle[:-1], True), 2 * np.pi, np.roll(a, -1))


def on_circles(found, keep, at=0):
    """The flat arrays of ``found``, found[at] the circle of each entry, on the
    circles ``keep`` (ascending indices), in order, found[at] renumbered to index keep."""
    index = np.full(max(found[at].max(initial=-1), keep.max(initial=-1)) + 1, -1)
    index[keep] = np.arange(keep.size)     # each kept circle's place in keep, -1 elsewhere
    mask = index[found[at]] >= 0
    return tuple(index[a[mask]] if i == at else a[mask] for i, a in enumerate(found))


def cauchy_fraction(coeffs) -> float:
    """max_k |a_k / a_d| over k < d for the ascending coefficients a_0..a_d
    (a_d != 0), by Python's complex abs; 0 for a constant. Every root of the
    polynomial has modulus at most 1 + this value."""
    cs = [complex(c) for c in coeffs]
    return max((abs(c) / abs(cs[-1]) for c in cs[:-1]), default=0.0)
