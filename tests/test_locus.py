import math

import numpy as np
import pytest

from curvelab import (
    branch_asymptotics,
    count_branch_bound,
    regularity_radius,
    load_curve,
    riesz_of_max,
    tail_exponents,
    trace_branches,
)
from curvelab.characteristic import reduced_characteristic_polys
from curvelab import locus
from curvelab.locus import _branch_angles
from curvelab.polynomials import ComplexPoly, circle_angles, circle_sign_changes, horner, refine_angles, stack
from test_characteristic import FIXTURES, _dense_sign_changes, _sign_changes

Z = ComplexPoly([0, 1])
Z2 = ComplexPoly([0, 0, 1])
ZERO = ComplexPoly([])

# reduced exponents P_1..P_5 of a generated n = 5, sigma = 1 curve
LOCUS14 = [ComplexPoly(c) for c in (
    [0.6396669119595706 + 0.11524775534198907j, 0.2070459390897382 - 0.052760388089709995j,
     1.2176818941823004 + 0.38068291208785215j, 0.45189667071020545 + 0.1655055611623894j,
     0.2515254022116052 - 0.4425403826256995j],
    [0.1905751700643904 - 0.020878764377973216j, 0.2341972441092215 + 0.15683712509970751j,
     -0.47520814283692303 + 0.35500011939747056j, -0.5802312453985827 - 0.6740112065127698j,
     0.2395896253617244 - 0.321089372679131j],
    [0.2080092084354488 + 0.27034810854156416j, -0.6754759115114827 + 0.37906829974751216j,
     -0.7644869346927798 + 0.6298571423886316j, -0.2335755888660796 - 0.12464195482572578j,
     0.35858458469009435 - 0.5823718108582423j],
    [0.06916497196984564 - 0.012259209545047379j, -0.4666931646383953 + 0.09085896086028346j,
     0.576377567361516 - 0.6103766219255837j, -0.30509519265520507 + 0.32796514481172906j,
     -0.2544010788679792 - 0.7047123385535946j],
    [],
)]


class TestRegularityRadius:
    def test_linear_pair(self):
        assert regularity_radius([Z, ZERO]) == pytest.approx(2.0)

    def test_quadratic_pair(self):
        assert regularity_radius([Z2, -1 * Z2]) == pytest.approx(2.0)

    def test_identical_polys_empty_locus(self):
        # no pair difference varies: an empty locus is a result, r0 = 2
        for polys in ([Z, Z], [Z], [Z, ComplexPoly([1, 1])], [Z, ComplexPoly([1j, 1]), Z]):
            assert regularity_radius(polys) == 2.0
            summary = trace_branches(polys, regularity_radius(polys), 10.0)
            assert (summary.branches, summary.b, summary.c0) == ([], -math.inf, 0.0)


class TestTraceBranches:
    def test_imaginary_axis(self):
        summary = trace_branches([Z, ZERO], 2.0, 30.0)
        assert len(summary.branches) == 2
        for br in summary.branches:
            assert np.allclose(br.points.real, 0.0, atol=1e-9)
            assert np.allclose(br.densities, 1 / (2 * math.pi), atol=1e-12)
            assert br.active

    def test_diagonals(self):
        summary = trace_branches([Z2, -1 * Z2], 2.0, 30.0)
        assert len(summary.branches) == 4
        for br in summary.branches:
            # J(z) = |4z| along the diagonals
            assert np.allclose(br.densities,
                               4 * np.abs(br.points) / (2 * math.pi), rtol=1e-9)

    def test_pairs_match_greedy_distinct(self):
        # one mask over the pair differences keeps the pairs that a greedy
        # scan for distinct real parts, then for varying differences, keeps
        rng = np.random.default_rng(5)
        base = [ComplexPoly(rng.normal(size=3) + 1j * rng.normal(size=3)) for _ in range(3)]
        shifts = [ComplexPoly([0]), ComplexPoly([1j]), ComplexPoly([0.5])]
        for _ in range(60):
            polys = [base[rng.integers(3)] + shifts[rng.integers(3)] for _ in range(rng.integers(1, 7))]
            keep = []
            for a, p in enumerate(polys):
                gaps = [p - polys[k] for k in keep]
                if not any(g.is_constant() and (g.is_zero or g.coeffs[0].real == 0.0) for g in gaps):
                    keep.append(a)
            expected = [(a, b) for m, a in enumerate(keep) for b in keep[m + 1:]
                        if not (polys[a] - polys[b]).is_constant()]
            i, j, diffs, degree = locus._pairs(polys)
            assert list(zip(i.tolist(), j.tolist())) == expected
            for a, b, row, d in zip(i, j, diffs, degree):
                assert np.array_equal(row[:d + 1], (polys[a] - polys[b]).coeffs)

    def test_duplicate_pair_no_branches(self):
        assert trace_branches([Z, Z], 2.0, 10.0).branches == []
        summary = trace_branches([Z, Z, ZERO], 2.0, 10.0)
        assert len(summary.branches) == 2  # duplicate dropped, one pair left

    def test_residual_invariant(self):
        rng = np.random.default_rng(7)
        polys = [ComplexPoly(rng.normal(size=3) + 1j * rng.normal(size=3)),
                 ComplexPoly(rng.normal(size=3) + 1j * rng.normal(size=3))]
        diff = polys[0] - polys[1]
        r0 = regularity_radius(polys)
        summary = trace_branches(polys, r0, 6 * r0)
        deg = int(diff.degree())
        for br in summary.branches:
            res = np.abs(np.asarray(diff(br.points)).real)
            assert np.all(res <= 1e-10 * (1 + np.abs(br.points) ** deg))


def _random_pairs(count=24):
    """Pairs (P_a, P_b) with deg(P_a - P_b) in 1..4."""
    rng = np.random.default_rng(606)
    pairs = []
    for _ in range(count):
        deg = int(rng.integers(1, 5))
        low = int(rng.integers(0, deg + 1))
        pairs.append([ComplexPoly(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)),
                      ComplexPoly(rng.normal(size=low + 1) + 1j * rng.normal(size=low + 1))])
    return pairs


class TestRadiusGridTrace:
    """Past r0 the locus of a pair crosses every circle 2*deg times, which is
    what lets trace_branches follow each branch from circle to circle."""

    def test_circle_crossings_past_r0(self):
        for polys in _random_pairs():
            diff = polys[0] - polys[1]
            r0 = regularity_radius(polys)
            for factor in (1.0, 1.01, 2.0, 10.0, 100.0):
                assert len(_sign_changes(diff, factor * r0)) == 2 * int(diff.degree())

    def test_branches_are_graphs_over_the_radius(self):
        for polys in _random_pairs():
            diff = polys[0] - polys[1]
            deg = int(diff.degree())
            r0 = regularity_radius(polys)
            summary = trace_branches(polys, r0, 10 * r0)
            assert len(summary.branches) == 2 * deg
            for br in summary.branches:
                assert np.all(np.diff(np.abs(br.points)) > 0)
            # a pair alone always holds the max, so every branch point lies
            # on a grid circle r0 * 1.01^k or r_max
            points = np.array([br.points for br in summary.branches])
            # each branch moves less from one circle to the next than half
            # the angle between two branches on one circle
            angles = np.angle(points)
            step = np.abs(np.angle(np.exp(1j * np.diff(angles, axis=1))))
            apart = np.sort(np.mod(angles, 2 * np.pi), axis=0)
            apart = np.diff(np.vstack([apart, apart[:1] + 2 * np.pi]), axis=0)
            assert step.max() < 0.5 * apart.min()
            for k in (0, 100, points.shape[1] - 1):
                radius = r0 * 1.01 ** k if k < points.shape[1] - 1 else 10 * r0
                assert np.allclose(np.abs(points[:, k]), radius, rtol=1e-14, atol=0.0)
                dense = _dense_sign_changes(diff, radius)
                assert len(dense) == 2 * deg
                for t in np.angle(points[:, k]):
                    assert np.abs(np.angle(np.exp(1j * (dense - t)))).min() <= 1e-10


def _per_pair_angles(coeffs, radii):
    """locus._branch_angles as it solved one pair: np.roots of the difference
    with ascending coefficients ``coeffs``, and Newton steps on all radii
    until every step is at most 1e-14."""
    roots = np.roots(np.asarray(coeffs)[::-1])
    radii = np.asarray(radii, dtype=float)[:, None]
    d, c = len(roots), np.angle(coeffs[-1])
    phase0 = c + np.angle(1 - roots / radii[0, 0]).sum()
    tau = np.pi * (np.ceil(phase0 / np.pi - 0.5) + 0.5 + np.arange(2 * d))
    spread = np.arcsin(np.abs(roots) / radii).sum(axis=1, keepdims=True)
    lo, hi = (tau - c - spread) / d, (tau - c + spread) / d
    theta = 0.5 * (lo + hi)
    for _ in range(60):
        v = roots / (radii * np.exp(1j * theta))[..., None]
        f = c + d * theta + np.angle(1 - v).sum(axis=2) - tau
        lo, hi = np.where(f < 0, theta, lo), np.where(f < 0, hi, theta)
        step = f / (d + (v / (1 - v)).real.sum(axis=2))
        inside = (lo <= theta - step) & (theta - step <= hi)
        theta = np.where(inside, theta - step, 0.5 * (lo + hi))
        if np.abs(step).max() <= 1e-14:
            break
    return np.mod(theta, 2 * np.pi)


class TestBranchAngles:
    """The phase solve gives the crossings that circle_sign_changes gives."""

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(1414)

        def poly(deg):
            return ComplexPoly(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        pairs = [[ComplexPoly([0, 0, 0, 0, 1]), ZERO],              # z^4: one root, four times
                 [ComplexPoly([-1, 3, -3, 1]), ComplexPoly([0.5j])],  # (z - 1)^3 + const
                 [ComplexPoly([0, 1 + 1j, 0, 2]), ZERO]]            # D(0) = 0, a root at 0
        for deg in range(1, 7):
            pairs += [[poly(deg), poly(0)], [poly(deg), poly(deg)]]
        for low, deg in ((1, 4), (2, 5), (3, 6)):    # D(0) = 0: z^low times a random polynomial
            pairs.append([ComplexPoly(np.append(np.zeros(low), poly(deg - low).coeffs)), ZERO])
        return pairs

    def test_matches_circle_sign_changes(self):
        degrees = set()
        for polys in self._pairs():
            diff = polys[0] - polys[1]
            deg = int(diff.degree())
            degrees.add(deg)
            radii = regularity_radius(polys) * np.array([1.0, 1.01, 2.0, 10.0, 100.0, 1e4])
            theta = _branch_angles([diff.coeffs], radii)[0]
            assert theta.shape == (len(radii), 2 * deg)
            assert np.all((theta >= 0) & (theta < 2 * np.pi))
            assert np.all(np.diff(theta[0]) > 0)
            _, circle, angles = circle_sign_changes([diff, ZERO], radii)
            assert np.array_equal(circle, np.repeat(np.arange(len(radii)), 2 * deg))
            for row, ref in zip(theta, angles.reshape(len(radii), 2 * deg)):
                gap = np.abs(np.angle(np.exp(1j * (row[:, None] - ref[None, :]))))
                assert gap.min(axis=1).max() <= 1e-12
                assert np.array_equal(np.sort(gap.argmin(axis=1)), np.arange(2 * deg))
        assert degrees == set(range(1, 7))

    def _by_degree(self):
        """The differences of _pairs() grouped by degree, with radii past
        every root of the group."""
        groups = {}
        for polys in self._pairs():
            diff = polys[0] - polys[1]
            rows, r0 = groups.get(int(diff.degree()), ([], 0.0))
            groups[int(diff.degree())] = rows + [diff.coeffs], max(r0, regularity_radius(polys))
        return [(rows, r0 * np.array([1.0, 1.01, 2.0, 10.0, 100.0, 1e4]))
                for rows, r0 in groups.values()]

    @pytest.mark.identity
    def test_rows_match_one_row(self):
        # every row keeps the bits it has when solved alone, though the rows
        # of one stack stop their Newton steps at different iterations
        for rows, radii in self._by_degree():
            stacked = _branch_angles(rows, radii)
            for row, got in zip(rows, stacked):
                assert got.tobytes() == _branch_angles([row], radii)[0].tobytes()

    def test_matches_per_pair_roots(self):
        # the same bits as one np.roots call and one Newton solve per pair,
        # rows with zero low coefficients included
        for rows, radii in self._by_degree():
            for row, got in zip(rows, _branch_angles(rows, radii)):
                assert got.tobytes() == _per_pair_angles(row, radii).tobytes()

    @pytest.mark.identity
    def test_high_degrees_match_per_pair_roots(self):
        # numpy adds fewer than 8 roots in order and 8 or more pairwise, so
        # the root sums keep np.sum's bits on both sides of the switch
        rng = np.random.default_rng(89)
        for deg in (7, 8, 9):
            pairs = [[ComplexPoly(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)), ZERO]
                     for _ in range(3)]
            rows = [(p - q).coeffs for p, q in pairs]
            radii = max(map(regularity_radius, pairs)) * np.array([1.0, 1.01, 2.0, 10.0, 100.0, 1e4])
            for row, got in zip(rows, _branch_angles(rows, radii)):
                assert got.tobytes() == _per_pair_angles(row, radii).tobytes()

    @pytest.mark.identity
    def test_circle_angles_rows_match_one_row(self):
        # the differences of one degree in one stacked solve, row by row
        radii = np.array([0.5, 1.0, 3.0, 40.0])
        by_degree = {}
        for polys in self._pairs():
            diff = polys[0] - polys[1]
            by_degree.setdefault(int(diff.degree()), []).append(diff.coeffs)
        for deg, rows in by_degree.items():
            angles = circle_angles(rows, radii)
            assert angles.shape == (len(rows), len(radii), 2 * deg)
            for row, got in zip(rows, angles):
                assert np.array_equal(got, circle_angles([row], radii)[0])

    def test_r0_inside_a_root_rejected(self):
        # Re(z^2 - 4) = 0 has roots +-2, so the circle r0 = 1 is not past them
        polys = [ComplexPoly([-4, 0, 1]), ZERO]
        with pytest.raises(ValueError, match="r0"):
            trace_branches(polys, 1.0, 10.0)
        with pytest.raises(ValueError, match="r0"):
            tail_exponents(polys, 1.0, 10.0)


def _random_stacks(seed=13, count=12):
    """Reduced exponent stacks P_1..P_n of n = 2..6 polynomials of degree 1..4,
    the last one 0 as for a curve."""
    rng = np.random.default_rng(seed)
    stacks = []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        degrees = rng.integers(1, 5, size=n - 1)
        stacks.append([ComplexPoly(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
                       for d in degrees] + [ZERO])
    return stacks


class TestTailExponents:
    """prop3's (b, c0) from the tail radii alone match the full trace's."""

    @staticmethod
    def _both(polys, r0):
        r_max = max(4 * r0, 20.0)
        summary = trace_branches(polys, r0, r_max)
        return tail_exponents(polys, r0, r_max), (summary.b, summary.c0)

    def test_product2(self):
        polys = load_curve(FIXTURES / "product2.json").reduced_polys()
        tail, traced = self._both(polys, regularity_radius(polys))
        assert tail == traced
        assert tail == (0.0, pytest.approx(1 / (2 * math.pi)))

    def test_random_stacks(self):
        finite = 0
        for polys in _random_stacks():
            tail, traced = self._both(polys, regularity_radius(polys))
            assert tail == traced
            finite += math.isfinite(tail[0])
        assert finite == 12

    def test_branch_exponents_from_the_leading_coefficient(self):
        # b_k = d - 1 and c_k = d |a_d| / 2pi for the difference of each
        # branch's pair, with Python's complex abs, bit for bit
        for polys in _random_stacks(seed=21, count=30):
            r0 = regularity_radius(polys)
            summary = trace_branches(polys, r0, 2 * r0)
            for br in summary.branches:
                diff = polys[br.pair[0]] - polys[br.pair[1]]
                d = int(diff.degree())
                assert (br.b_k, br.c_k) == (float(d - 1), d * abs(diff.leading) / (2 * math.pi))

    def test_dominated_pair_left_out(self):
        # on the diagonals Re z^2 = 0 the constant 1 beats both z^2 and -z^2,
        # so only the hyperbolas Re z^2 = +-1 count: c0 = 2*1/2pi, not 2*2/2pi
        polys = [Z2, -1 * Z2, ComplexPoly([1])]
        tail, traced = self._both(polys, regularity_radius(polys))
        assert tail == traced == (1.0, pytest.approx(1 / math.pi))

    def test_empty_active_set(self):
        # Re(P_1 - P_2) is constant, so no branch exists, let alone an active one
        polys = [Z, ComplexPoly([1, 1])]
        tail, traced = self._both(polys, 2.0)
        assert tail == traced == (-math.inf, 0.0)

    def test_radius_order_checked(self):
        with pytest.raises(ValueError, match="r_max"):
            tail_exponents([Z, ZERO], 4.0, 4.0)


def _transitions_60(exponents, i, j, coeffs, r_lo, r_hi, th_lo, th_hi, flag):
    """locus._transitions with all of its 60 bisection steps, none skipped."""
    th_hi = th_lo + np.angle(np.exp(1j * (th_hi - th_lo)))
    for _ in range(60):
        r = 0.5 * (r_lo + r_hi)
        th = refine_angles(coeffs, r, 0.5 * (th_lo + th_hi))
        same = locus._pair_active(exponents, i, j, r * np.exp(1j * th)) == flag
        r_lo, th_lo = np.where(same, r, r_lo), np.where(same, th, th_lo)
        r_hi, th_hi = np.where(same, r_hi, r), np.where(same, th_hi, th)
    r = 0.5 * (r_lo + r_hi)
    return r * np.exp(1j * refine_angles(coeffs, r, 0.5 * (th_lo + th_hi)))


class TestTransitions:
    @pytest.mark.identity
    def test_early_stop_bit_identical(self, monkeypatch):
        # the bisection stops at the first step that moves no bracket end,
        # with the points of all 60 steps, bit for bit, and fewer probes
        probes, calls = [], []
        original, transitions = locus._pair_active, locus._transitions
        monkeypatch.setattr(locus, "_pair_active", lambda *args: probes.append(1) or original(*args))
        # the brackets handed to _transitions, r_lo its fifth argument
        monkeypatch.setattr(locus, "_transitions", lambda *args: calls.append(len(args[4])) or transitions(*args))
        with_transitions = 0
        for polys in _random_stacks(seed=9, count=12):
            r0 = regularity_radius(polys)
            probes.clear()
            calls.clear()
            fast = trace_branches(polys, r0, max(4 * r0, 20.0))
            fast_probes = len(probes)
            with monkeypatch.context() as patch:
                patch.setattr(locus, "_transitions", _transitions_60)
                probes.clear()
                full = trace_branches(polys, r0, max(4 * r0, 20.0))
            assert len(fast.branches) == len(full.branches)
            for a, b in zip(fast.branches, full.branches):
                assert a.points.tobytes() == b.points.tobytes()
                assert np.array_equal(a.active_mask, b.active_mask)
            if sum(calls):
                with_transitions += 1
                assert fast_probes < len(probes)
        assert with_transitions >= 3


class TestAsymptotics:
    def test_linear(self):
        summary = trace_branches([Z, ZERO], 2.0, 40.0)
        b, c = branch_asymptotics(summary.branches[0])
        assert b == 0.0
        assert c == pytest.approx(1 / (2 * math.pi))

    def test_quadratic(self):
        summary = trace_branches([Z2, -1 * Z2], 2.0, 40.0)
        for br in summary.branches:
            b, c = branch_asymptotics(br)
            assert b == 1.0
            assert c == pytest.approx(2 / math.pi)

    def test_cubic_leading(self):
        # difference 3z^2: J = 6|z|
        summary = trace_branches([ComplexPoly([0, 0, 3]), ZERO], 2.0, 40.0)
        for br in summary.branches:
            b, c = branch_asymptotics(br)
            assert b == 1.0
            assert c == pytest.approx(3 / math.pi)


class TestRieszMass:
    def test_half_line(self):
        r0 = 2.0
        summary = trace_branches([Z, ZERO], r0, 45.0)
        for t in (5.0, 20.0, 40.0):
            nu = riesz_of_max([Z, ZERO], t, r0, summary)
            assert nu == pytest.approx((t - r0) / math.pi, rel=1e-4)

    def test_abs_square(self):
        r0 = 2.0
        summary = trace_branches([Z2, -1 * Z2], r0, 45.0)
        for t in (5.0, 20.0, 40.0):
            nu = riesz_of_max([Z2, -1 * Z2], t, r0, summary)
            assert nu == pytest.approx(4 * (t * t - r0 * r0) / math.pi, rel=1e-3)

    def test_beyond_the_trace_raises(self):
        # a trace knows no mass past its outermost circle: product2 traced to
        # r = 8 holds 1.91 up to there, against 4.46 at t = 16 and 24.83 at t = 80
        polys = load_curve(FIXTURES / "product2.json").reduced_polys()
        r0 = regularity_radius(polys)
        summary = trace_branches(polys, r0, 8.0)
        assert riesz_of_max(polys, 8.0, r0, summary) == riesz_of_max(polys, 8.0, r0)
        for t in (8.0 * (1 + 1e-15), 16.0, 80.0):
            with pytest.raises(ValueError, match="beyond the trace"):
                riesz_of_max(polys, t, r0, summary)

    def test_inside_the_trace_raises(self):
        # a trace from r = 4 holds product2's mass from 4 to 16, 3.8197, and
        # not the 4.4563 from its r0 = 2 out: an annulus that starts inside
        # the trace's first circle raises, whether r0 is given or computed
        polys = load_curve(FIXTURES / "product2.json").reduced_polys()
        r0, late = regularity_radius(polys), trace_branches(polys, 4.0, 16.0)
        assert r0 == 2.0
        assert riesz_of_max(polys, 16.0, 4.0, late) == pytest.approx(3.8197, abs=1e-4)
        assert riesz_of_max(polys, 16.0, r0) == pytest.approx(4.4563, abs=1e-4)
        for start in (r0, 4.0 * (1 - 1e-15), None):
            with pytest.raises(ValueError, match="beyond the trace"):
                riesz_of_max(polys, 16.0, start, late)

    def test_matches_jensen_route(self):
        # independent oracle: nu(t) = t dT*/dt from the exact circle means
        r14 = regularity_radius(LOCUS14)
        cases = [
            ([Z2, -1 * Z2], 2.0, 45.0, (5.0, 10.0, 20.0)),
            # n = 5, sigma = 1 with P_5 = 0: half of its branches lie on loci
            # where the pair's larger member, not its first, holds the max
            (LOCUS14, r14, 4 * r14, (2 * r14, 3 * r14)),
        ]
        h = 1e-5
        for polys, r0, r_max, radii in cases:
            summary = trace_branches(polys, r0, r_max)

            def nu_jensen(s):
                return (reduced_characteristic_polys(polys, s * math.exp(h))
                        - reduced_characteristic_polys(polys, s * math.exp(-h))) / (2 * h)
            for t in radii:
                oracle = nu_jensen(t) - nu_jensen(r0)
                assert riesz_of_max(polys, t, r0, summary) == pytest.approx(oracle, rel=0.01)


class TestBranchCountBound:
    def test_examples(self):
        assert count_branch_bound([Z, ZERO], 0.0) == (2, 4, True)
        assert count_branch_bound([Z2, -1 * Z2], 0.0) == (4, 4, True)
        assert count_branch_bound([Z], 0.0) == (0, 0, True)
        # P_1 and P_2 share their real part: one pair locus, 2 deg = 4 rays,
        # each the start of one traced branch
        polys = [Z2, Z2, ZERO]
        assert count_branch_bound(polys, 0.0) == (4, 12, True)
        assert len(trace_branches(polys, regularity_radius(polys), 40.0).branches) == 4

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_randomized(self, sigma):
        rng = np.random.default_rng(int(sigma * 10))
        cap = math.floor(2 * sigma + 2)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            polys = []
            for _ in range(n):
                deg = int(rng.integers(0, cap + 1))
                coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
                polys.append(ComplexPoly(coeffs))
            count, bound, ok = count_branch_bound(polys, sigma)
            assert ok


def _trace_per_branch(polys, r0, r_max):
    """trace_branches with each branch built alone, by the per-branch loop of
    insertions, Horner rows and chord lengths that one pass over the flat
    samples replaced: the reference of its bits."""
    radii, pairs = locus._radius_grid(r0, r_max), locus._pairs(polys)
    if not pairs[3].size:
        return locus.LocusSummary(r0=r0, r_max=r_max, branches=[], b=-math.inf, c0=0.0)
    theta, col, b_k, c_k = locus._columns(pairs, radii)
    exponents, (i, j, diffs, degree) = stack(polys), pairs
    i, j = i[col], j[col]
    points = radii[:, None] * np.exp(1j * theta)
    flags = locus._pair_active(exponents, i, j, points)
    active = locus._tail(flags).all(axis=0)
    k, c = np.nonzero(flags[1:] != flags[:-1])
    ends = np.empty(0, complex)
    if k.size:
        ends = locus._transitions(exponents, i[c], j[c], diffs[col[c]], radii[k], radii[k + 1],
                                  theta[k, c], theta[k + 1, c], flags[k, c])
    slopes, branches = diffs[:, 1:] * np.arange(1, diffs.shape[1]), []
    for idx, (p, pi, pj) in enumerate(zip(col.tolist(), i.tolist(), j.tolist())):
        cuts = k[c == idx] + 1
        pts = np.insert(points[:, idx], cuts, ends[c == idx])
        branches.append(locus.LocusBranch(
            pair=(pi, pj), points=pts, arclens=np.abs(np.diff(pts)),
            densities=np.abs(horner(slopes[p:p + 1, :degree[p]], pts)[0]) / locus.TWO_PI,
            active_mask=np.insert(flags[:, idx], cuts, flags[cuts, idx]),
            b_k=float(b_k[idx]), c_k=float(c_k[idx]), active=bool(active[idx])))
    return locus.LocusSummary(r0, r_max, branches, *locus._far_field(b_k, c_k, active))


@pytest.mark.identity
@pytest.mark.parametrize("polys, transitions, most", [
    (_random_stacks(seed=33, count=6)[5], 6, 2),    # two triple points, one branch through both
    (_random_stacks(seed=9, count=12)[0], 3, 1),    # one triple point: one transition on each of 3 branches
    (LOCUS14, 0, 0),
    ([Z, ZERO], 0, 0),
    ([Z, Z], 0, 0),                                 # an empty locus
])
def test_branches_from_one_flat_pass(polys, transitions, most):
    # the transitions lie where three Re P_j tie, where three pair loci meet,
    # so a trace holds none or at least three of them
    r0 = regularity_radius(polys)
    r_max = max(4 * r0, 20.0)
    got, expected = trace_branches(polys, r0, r_max), _trace_per_branch(polys, r0, r_max)
    assert (got.r0, got.r_max, got.b, got.c0) == (expected.r0, expected.r_max, expected.b, expected.c0)
    assert len(got.branches) == len(expected.branches)
    inserted = [len(br.points) - len(locus._radius_grid(r0, r_max)) for br in got.branches]
    assert (sum(inserted), max(inserted, default=0)) == (transitions, most)
    for a, b in zip(got.branches, expected.branches):
        assert (a.pair, a.b_k, a.c_k, a.active) == (b.pair, b.b_k, b.c_k, b.active)
        for name in ("points", "densities", "arclens", "active_mask"):
            assert getattr(a, name).dtype == getattr(b, name).dtype
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
