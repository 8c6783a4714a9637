import json
import math

import mpmath
import numpy as np
import pytest

from curvelab import (
    ComplexPoly,
    DiscHarmonic,
    DiscSuperharmonic,
    green_boundary_min,
    green_boundary_normal,
    green_disc,
    harness_report,
    random_lemma_family,
    verify_lemma1,
    verify_lemma2,
)
from curvelab import lemmas


class TestGreenKernel:
    def test_at_center(self):
        for zeta in (0.5, 0.3 + 0.2j, -0.7j):
            assert green_disc(0.0, zeta) == pytest.approx(-math.log(abs(zeta)))

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = 0.9 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
            zeta = 0.9 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
            if abs(z - zeta) < 1e-3:
                continue
            assert green_disc(z, zeta) == pytest.approx(green_disc(zeta, z), abs=1e-12)
            assert green_disc(z, zeta) >= 0.0

    def test_vanishes_on_boundary(self):
        theta = np.linspace(0, 2 * math.pi, 37)
        for t in theta:
            assert abs(green_disc(np.exp(1j * t), 0.3 + 0.4j)) < 1e-12

    def test_pole(self):
        assert green_disc(0.2, 0.2) == math.inf

    def test_boundary_normal_minimum_is_one_third(self):
        value, theta = green_boundary_min(0.5)
        assert abs(value - 1 / 3) < 1e-9
        assert theta == pytest.approx(math.pi, abs=1e-5)

    def test_boundary_normal_formula(self):
        zeta = 0.3 - 0.1j
        theta = 1.2
        w = np.exp(1j * theta)
        expected = (1 - abs(zeta) ** 2) / abs(w - zeta) ** 2
        assert green_boundary_normal(theta, zeta) == pytest.approx(expected)


class TestLemma1:
    def test_mobius_sharpness(self):
        v = DiscHarmonic.halfplane_kernel()
        lhs, rhs, margin = verify_lemma1(v, -1.0)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)
        assert abs(margin) <= 1e-10

    def test_linear(self):
        v = DiscHarmonic.from_real_part_poly(0.0, 1.0, [1, -1])  # 1 - Re w
        lhs, rhs, margin = verify_lemma1(v, 1.0)
        assert (lhs, rhs, margin) == pytest.approx((1.0, 2.0, 1.0))

    def test_zero_function(self):
        v = DiscHarmonic.from_real_part_poly(0.0, 1.0, [])
        lhs, rhs, margin = verify_lemma1(v, 1.0)
        assert (lhs, rhs, margin) == (0.0, 0.0, 0.0)

    def test_precondition_enforced(self):
        v = DiscHarmonic.from_real_part_poly(0.0, 1.0, [], constant=1.0)
        with pytest.raises(ValueError, match="precondition"):
            verify_lemma1(v, 1.0)

    def test_randomized_margins(self):
        for v, z1 in random_lemma_family(11, 300, "harmonic"):
            _, _, margin = verify_lemma1(v, z1)
            assert margin >= -1e-8


class TestLemma2:
    def test_atom_at_center(self):
        v = DiscSuperharmonic(0.0, 1.0, [(0.0, 1.0)])
        mass, rhs, margin = verify_lemma2(v, 1.0)
        assert (mass, rhs) == pytest.approx((1.0, 3.0))

    def test_near_sharp_atom(self):
        v = DiscSuperharmonic(0.0, 1.0, [(0.49, 1.0)])
        mass, rhs, margin = verify_lemma2(v, -1.0)
        assert mass == 1.0
        assert rhs == pytest.approx(3 * (1 - 0.49 ** 2) / abs(-1 - 0.49) ** 2)
        assert margin == pytest.approx(0.0268, abs=1e-3)

    def test_empty_masses(self):
        v = DiscSuperharmonic(0.0, 1.0, [],
                              DiscHarmonic.from_real_part_poly(0.0, 1.0, []))
        mass, rhs, margin = verify_lemma2(v, 1.0)
        assert (mass, rhs) == (0.0, 0.0)

    def test_outer_atom_not_counted(self):
        v = DiscSuperharmonic(0.0, 1.0, [(0.8, 2.0), (0.1, 0.5)])
        mass, _, _ = verify_lemma2(v, 1j)
        assert mass == 0.5

    def test_randomized_margins(self):
        for v, z1 in random_lemma_family(13, 300, "superharmonic"):
            _, _, margin = verify_lemma2(v, z1)
            assert margin >= -1e-8


class TestFamilyAndReport:
    def test_deterministic_per_seed(self):
        a = random_lemma_family(5, 3, "mixed")
        b = random_lemma_family(5, 3, "mixed")
        for (va, za), (vb, zb) in zip(a, b):
            assert za == zb
            assert va.value(va.center) == pytest.approx(vb.value(vb.center))

    def test_instances_pass_own_preconditions(self):
        for v, z1 in random_lemma_family(0, 4, "mixed"):
            if isinstance(v, DiscSuperharmonic):
                verify_lemma2(v, z1)
            else:
                verify_lemma1(v, z1)

    def test_report_structure(self):
        report = harness_report(seed=7, count=20)
        assert report["failures"] == []
        assert report["harmonic_min_margin"] >= -1e-8
        assert report["superharmonic_min_margin"] >= -1e-8
        assert abs(report["green_kernel_min"] - 1 / 3) < 1e-9

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            random_lemma_family(0, 3, "subharmonic")

    def test_report_rejects_empty_count(self):
        with pytest.raises(ValueError, match="count"):
            harness_report(7, 0)

    def test_affine_covariance(self):
        # same boundary data on B(a, R) and on the unit disc give equal margins
        for v, z1 in random_lemma_family(21, 10, "harmonic"):
            unit = DiscHarmonic.from_real_part_poly(0.0, 1.0, v._h)
            w1 = (z1 - v.center) / v.radius
            m_disc = verify_lemma1(v, z1)[2]
            m_unit = verify_lemma1(unit, w1)[2]
            assert m_disc == pytest.approx(m_unit, abs=1e-9)


# -- reference routes: the FFT recovery of h from boundary samples, the
# -- per-instance angle grid with its 4096-point scan for the scale, the
# -- instance-by-instance family and the two harness loops that the closed
# -- form, the critical-angle scale, the batched family and the one harness
# -- loop replace ---------------------------------------------------------------

def _coeffs_per_mode(samples):
    """Coefficients of h by scanning every mode below n/2 one at a time."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    c = np.fft.fft(samples) / n
    scale = max(1.0, float(np.max(np.abs(c))))
    m_max = 0
    for m in range(1, n // 2):
        if abs(c[m]) > 1e-15 * scale:
            m_max = m
    return ComplexPoly([c[0]] + [2.0 * c[m] for m in range(1, m_max + 1)]).coeffs


def _draw_q(rng, grid):
    """A harmonic instance's draws, with exp(i theta1) computed per call."""
    center = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    radius = rng.uniform(0.5, 2.5)
    k1 = int(rng.integers(0, grid))
    w1 = np.exp(1j * (2 * np.pi * k1 / grid))
    deg = int(rng.integers(0, 4))
    p = ComplexPoly([complex(a, b) for a, b in rng.normal(size=(deg + 1, 2))])
    if p.is_zero:
        p = ComplexPoly.constant(1.0)
    return center, radius, w1, ComplexPoly([-w1, 1.0]) * p


def _harmonic_per_instance_grid(rng):
    """A harmonic instance scaled by the maximum of |q|^2 over all 4096
    points of its own angle grid."""
    grid = lemmas.GRID_SIZE
    center, radius, w1, q = _draw_q(rng, grid)
    theta = np.arange(grid) * (2 * np.pi / grid)
    top = float(np.max(np.abs(q(np.exp(1j * theta))) ** 2))
    a = np.asarray(q.coeffs)
    c = np.correlate(a, a, "full")[len(a) - 1:] * (10.0 / top)
    c[1:] *= 2.0
    return DiscHarmonic.from_real_part_poly(center, radius, c), center + radius * w1


def _harmonic_by_fft(rng):
    """A harmonic instance through the sampled density: h recovered by FFT
    and the mode cut; the scaled density is kept on the instance as rho."""
    center, radius, w1, q = _draw_q(rng, lemmas.GRID_SIZE)
    rho = np.abs(q(lemmas._CIRCLE)) ** 2
    rho = rho * (10.0 / float(np.max(rho)))
    v = DiscHarmonic.from_real_part_poly(center, radius, _coeffs_per_mode(rho))
    v.rho = rho
    return v, center + radius * w1


def _family_one_by_one(seed, count, kind, harmonic, rejections=None):
    """random_lemma_family built one instance at a time: harmonic(rng) draws
    and builds each harmonic part, and a superharmonic instance draws its
    atoms right after it. Each atom radius redrawn near R/2 is appended to the
    list rejections, when one is given."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        v, z1 = harmonic(rng)
        if kind == "superharmonic" or (kind == "mixed" and k % 2 == 1):
            masses = []
            for _ in range(int(rng.integers(1, 5))):
                while True:
                    rho = math.sqrt(rng.uniform(0.0, 0.9))
                    if abs(rho - 0.5) > 1e-3:
                        break
                    if rejections is not None:
                        rejections.append((kind, k, rho))
                phi = rng.uniform(0.0, 2 * np.pi)
                zeta = v.center + v.radius * rho * np.exp(1j * phi)
                masses.append((zeta, float(rng.exponential(1.0))))
            v = DiscSuperharmonic(v.center, v.radius, masses, v)
        out.append((v, z1))
    return out


def _report_two_loops(seed, count):
    margins1, margins2, failures = [], [], []
    for idx, (v, z1) in enumerate(random_lemma_family(seed, count, "harmonic")):
        _, _, margin = verify_lemma1(v, z1)
        margins1.append(margin)
        if margin < -1e-8:
            failures.append({"kind": "harmonic", "index": idx, "margin": margin})
    for idx, (v, z1) in enumerate(random_lemma_family(seed + 1, count, "superharmonic")):
        _, _, margin = verify_lemma2(v, z1)
        margins2.append(margin)
        if margin < -1e-8:
            failures.append({"kind": "superharmonic", "index": idx, "margin": margin})
    return {
        "seed": seed,
        "count": count,
        "harmonic_min_margin": min(margins1),
        "superharmonic_min_margin": min(margins2),
        "green_kernel_min": green_boundary_min(0.5)[0],
        "failures": failures,
    }


def _q_lengths(seed, count, superharmonic):
    """The lengths of q in a one-kind family, drawn as _families draws them;
    d = len(q) - 1 unless q_0 = 0."""
    rng = np.random.default_rng(seed)
    return {len(lemmas._draw(rng, superharmonic)[3]) for _ in range(count)}


# seeds whose 50-instance superharmonic families redraw an atom radius within
# 1e-3 of R/2: seed 5 at instance 13, seed 11 at instances 1 and 32
_REJECTING_SEEDS = (5, 11)


class TestHarnessAgainstReference:
    @pytest.mark.identity
    @pytest.mark.parametrize("seed", [1, 4, 9, *_REJECTING_SEEDS])
    def test_family_matches_per_instance_grid(self, seed):
        rejections = []
        for kind in ("harmonic", "superharmonic", "mixed"):
            got = random_lemma_family(seed, 50, kind)
            want = _family_one_by_one(seed, 50, kind, _harmonic_per_instance_grid, rejections)
            for (v, z1), (ref, ref_z1) in zip(got, want, strict=True):
                assert z1 == ref_z1
                assert type(v) is type(ref)
                if isinstance(v, DiscSuperharmonic):
                    assert v.masses == ref.masses
                    v, ref = v.harmonic_part, ref.harmonic_part
                assert v._h.coeffs == ref._h.coeffs
        assert bool(rejections) == (seed in _REJECTING_SEEDS), rejections

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_closed_form_matches_fft_recovery(self, seed):
        for kind in ("harmonic", "superharmonic", "mixed"):
            got = random_lemma_family(seed, 50, kind)
            want = _family_one_by_one(seed, 50, kind, _harmonic_by_fft)
            for (v, _), (ref, _) in zip(got, want, strict=True):
                if isinstance(v, DiscSuperharmonic):
                    v, ref = v.harmonic_part, ref.harmonic_part
                h, h_ref = np.array(v._h.coeffs), np.array(ref._h.coeffs)
                on_circle = v._h(lemmas._CIRCLE)
                assert len(h) == len(h_ref)
                assert np.max(np.abs(h - h_ref)) <= 1e-14 * max(1.0, np.max(np.abs(on_circle)))
                assert np.max(np.abs(on_circle.real - ref.rho)) <= 1e-13

    @pytest.mark.identity
    @pytest.mark.parametrize("seed", [2, 7, 12])
    def test_report_matches_two_loops(self, seed):
        got = harness_report(seed, 50)
        want = _report_two_loops(seed, 50)
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.identity
    @pytest.mark.parametrize("seed", range(1, 21))
    def test_array_margins_match_verifiers(self, seed):
        for kind, verify in (("harmonic", verify_lemma1), ("superharmonic", verify_lemma2)):
            got = lemmas._margins(lemmas._families((seed, 250, kind))[0])
            want = np.array([verify(v, z1)[2] for v, z1 in random_lemma_family(seed, 250, kind)])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.identity
    @pytest.mark.parametrize("seed, count, shared", [(5, 1, True), (0, 1, False), (12, 4, False),
                                                     (2, 50, True)])
    def test_shared_scale_matches_two_families(self, seed, count, shared):
        # shared: whether the two families meet in a (length of q, d) group of _grid_top
        assert bool(_q_lengths(seed, count, False) & _q_lengths(seed + 1, count, True)) == shared
        joint = lemmas._families((seed, count, "harmonic"), (seed + 1, count, "superharmonic"))
        alone = [lemmas._families((seed, count, "harmonic"))[0],
                 lemmas._families((seed + 1, count, "superharmonic"))[0]]
        for got, want in zip(joint, alone, strict=True):
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind, craft", [("harmonic", "value"), ("superharmonic", "value"),
                                             ("superharmonic", "atom")])
    def test_array_preconditions_raise_as_verifiers(self, kind, craft):
        family = lemmas._families((3, 6, kind))[0]
        if craft == "value":
            family.h[4, 0] += 1.0       # v(z1) is 1 plus rounding
        else:                           # an atom 1e-7 R outside the half-radius circle
            family.zeta[4, 0] = family.center[4] + family.radius[4] * (0.5 + 1e-7) * np.exp(0.3j)
        verify = verify_lemma1 if kind == "harmonic" else verify_lemma2
        with pytest.raises(ValueError) as want:
            verify(*lemmas._instance(family, 4))
        with pytest.raises(ValueError) as got:
            lemmas._margins(family)
        assert str(got.value) == str(want.value)


def _scanned_top(q):
    """max |q|^2 over all 4096 points of the shared grid."""
    return np.max(np.abs(ComplexPoly(q)(lemmas._CIRCLE)) ** 2)


def _critical_angle_tops(qs):
    qs = [np.asarray(q, dtype=complex) for q in qs]
    return lemmas._grid_top(qs, [np.correlate(q, q, "full")[len(q) - 1:] for q in qs])


def _two_close_peaks(theta0, eps=1e-7):
    """Coefficients of q with |q(e^{i theta})|^2 proportional to
    6 + (4 - 2 eps) cos t - cos 2t, t = theta - theta0: near t = 0 it is
    6 + eps t^2 - t^4 / 2 + ..., so it peaks at t = +-sqrt(eps), 6.3e-4
    apart, less than one grid step. q takes the roots of the density's
    w-polynomial outside the unit circle (Fejer-Riesz)."""
    density = np.array([-0.5, 2 - eps, 6.0, 2 - eps, -0.5])   # w^2 sum_k rho_k w^k
    roots = np.roots(density[::-1])
    outside = roots[np.abs(roots) > 1] * np.exp(1j * theta0)
    return np.poly(outside)[::-1]


@pytest.mark.identity
class TestCriticalAngleMaximum:
    """_grid_top reads the same grid maximum of |q|^2 as the full scan."""

    def test_random_polynomials(self):
        rng = np.random.default_rng(2024)
        qs = [rng.normal(size=(deg + 1, 2)) @ [1, 1j]
              for deg in rng.integers(1, 5, size=5000)]
        got = _critical_angle_tops(qs)
        want = [_scanned_top(q) for q in qs]
        assert got.tolist() == want

    @pytest.mark.parametrize("k1", [0, 1, 1000, 2047, 2048, 4095])
    def test_linear_peak_on_antipodal_grid_point(self, k1):
        q = [-lemmas._CIRCLE[k1], 1.0]
        assert np.argmax(np.abs(lemmas._CIRCLE + q[0]) ** 2) == (k1 + 2048) % 4096
        assert _critical_angle_tops([q])[0] == _scanned_top(q)

    @pytest.mark.parametrize("k", [0, 17, 2047, 4095])
    def test_peak_midway_between_grid_points(self, k):
        w1 = -np.exp(1j * (2 * np.pi * (k + 0.5) / 4096))    # peak at angle (k + 1/2) step
        qs = [[-w1, 1.0], np.convolve([-w1, 1.0], [1.0, 0.3j])]
        assert _critical_angle_tops(qs).tolist() == [_scanned_top(q) for q in qs]

    @pytest.mark.parametrize("offset", [0.0, 0.5, 0.25])
    def test_two_peaks_closer_than_a_grid_step(self, offset):
        step = 2 * np.pi / 4096
        theta0 = (1234 + offset) * step
        q = _two_close_peaks(theta0)
        # the dip between the peaks is about 5e-15 deep: rho rises and falls
        # twice over t in (-2s, 2s), s = sqrt(eps), an interval shorter than a step
        s = math.sqrt(1e-7)
        with mpmath.workdps(40):
            rho = [abs(mpmath.polyval([mpmath.mpc(c) for c in q[::-1]],
                                      mpmath.expjpi((theta0 + k * s) / mpmath.pi))) ** 2
                   for k in (-2, -1, 0, 1, 2)]
        assert rho[0] < rho[1] > rho[2] < rho[3] > rho[4] and 4 * s < step
        assert _critical_angle_tops([q])[0] == _scanned_top(q)

    @pytest.mark.parametrize("k1", [0, 2048])
    def test_real_coefficients(self, k1):
        # a real q makes rho even, so rho'(0) = rho'(pi) = 0 and the half-angle
        # polynomial with phi = 0 would lose its leading coefficient
        rng = np.random.default_rng(k1)
        w1 = lemmas._CIRCLE[k1].real        # exactly 1 or -1
        qs = [np.convolve([-w1, 1.0], rng.normal(size=deg + 1)) for deg in rng.integers(0, 4, size=200)]
        assert _critical_angle_tops(qs).tolist() == [_scanned_top(q) for q in qs]

    def test_random_real_polynomials(self):
        rng = np.random.default_rng(2025)
        qs = [rng.normal(size=deg + 1) for deg in rng.integers(1, 5, size=20000)]
        assert _critical_angle_tops(qs).tolist() == [_scanned_top(q) for q in qs]

    def test_vanishing_constant_coefficient(self):
        # q_0 = 0 zeroes the leading coefficient r_m of the critical-angle
        # polynomial; a monomial has constant |q| and no critical angle at all
        w1 = lemmas._CIRCLE[123]
        qs = [[0.0, -w1, 1.0], [0.0, 0.0, 1 + 2j, -0.5, 0.25j], [0.0, 0.0, 3.0], [2j],
              [0.0, 1.0]]
        assert _critical_angle_tops(qs).tolist() == [_scanned_top(q) for q in qs]

    @pytest.mark.parametrize("kind", ["harmonic", "superharmonic", "mixed"])
    def test_empty_family(self, kind):
        for seed in (0, 5):
            assert random_lemma_family(seed, 0, kind) == []


# harness_report JSON recorded before the scale moved from the 4096-point scan
# to the critical angles, with numpy's complex array multiply fusing its
# products (FMA), as on an AVX-512 Xeon
GOLDEN_REPORTS = {
    (0, 1000): '{"seed": 0, "count": 1000, "harmonic_min_margin": 0.4021572194168339, '
               '"superharmonic_min_margin": 4.860005289357551, '
               '"green_kernel_min": 0.3333333333333333, "failures": []}',
    (7, 1000): '{"seed": 7, "count": 1000, "harmonic_min_margin": 0.6306448679181207, '
               '"superharmonic_min_margin": 4.840836570941615, '
               '"green_kernel_min": 0.3333333333333333, "failures": []}',
    (2, 50): '{"seed": 2, "count": 50, "harmonic_min_margin": 1.0159329531234826, '
             '"superharmonic_min_margin": 6.380617081300036, '
             '"green_kernel_min": 0.3333333333333333, "failures": []}',
    (12, 50): '{"seed": 12, "count": 50, "harmonic_min_margin": 0.5230912652392692, '
              '"superharmonic_min_margin": 5.889092804653731, '
              '"green_kernel_min": 0.3333333333333333, "failures": []}',
}
# the same reports where the multiply does not fuse, recorded under baseline
# dispatch (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"):
# the lemma scale's complex products round otherwise, and seed 7 moves
BASELINE_GOLDEN_REPORTS = {**GOLDEN_REPORTS, (7, 1000): (
    '{"seed": 7, "count": 1000, "harmonic_min_margin": 0.6306448679181229, '
    '"superharmonic_min_margin": 4.840836570941615, '
    '"green_kernel_min": 0.3333333333333333, "failures": []}')}


@pytest.mark.identity
@pytest.mark.parametrize("seed, count", list(GOLDEN_REPORTS))
def test_report_matches_recorded_json(seed, count, complex_multiply_fuses):
    golden = GOLDEN_REPORTS if complex_multiply_fuses else BASELINE_GOLDEN_REPORTS
    assert json.dumps(harness_report(seed, count)) == golden[seed, count]
