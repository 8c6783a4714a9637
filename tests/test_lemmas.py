import json
import math

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
# -- per-instance angle grid and the two harness loops that the closed form,
# -- the shared grid and the one harness loop replace -------------------------

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
    """The draws of _random_harmonic, with exp(i theta1) computed per call."""
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
    """_random_harmonic with its own angle grid and exp(i theta1) per call."""
    grid = lemmas.GRID_SIZE
    center, radius, w1, q = _draw_q(rng, grid)
    theta = np.arange(grid) * (2 * np.pi / grid)
    top = float(np.max(np.abs(q(np.exp(1j * theta))) ** 2))
    a = np.asarray(q.coeffs)
    c = np.correlate(a, a, "full")[len(a) - 1:] * (10.0 / top)
    c[1:] *= 2.0
    return DiscHarmonic.from_real_part_poly(center, radius, c), center + radius * w1


def _harmonic_by_fft(rng):
    """_random_harmonic through the sampled density: h recovered by FFT and
    the mode cut; the scaled density is kept on the instance as rho."""
    center, radius, w1, q = _draw_q(rng, lemmas.GRID_SIZE)
    rho = np.abs(q(lemmas._CIRCLE)) ** 2
    rho = rho * (10.0 / float(np.max(rho)))
    v = DiscHarmonic.from_real_part_poly(center, radius, _coeffs_per_mode(rho))
    v.rho = rho
    return v, center + radius * w1


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


class TestHarnessAgainstReference:
    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_family_matches_per_instance_grid(self, seed, monkeypatch):
        kinds = ("harmonic", "superharmonic", "mixed")
        got = {kind: random_lemma_family(seed, 50, kind) for kind in kinds}
        monkeypatch.setattr(lemmas, "_random_harmonic", _harmonic_per_instance_grid)
        for kind in kinds:
            want = random_lemma_family(seed, 50, kind)
            for (v, z1), (ref, ref_z1) in zip(got[kind], want, strict=True):
                assert z1 == ref_z1
                assert type(v) is type(ref)
                if isinstance(v, DiscSuperharmonic):
                    assert v.masses == ref.masses
                    v, ref = v.harmonic_part, ref.harmonic_part
                assert v._h.coeffs == ref._h.coeffs

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_closed_form_matches_fft_recovery(self, seed, monkeypatch):
        kinds = ("harmonic", "superharmonic", "mixed")
        got = {kind: random_lemma_family(seed, 50, kind) for kind in kinds}
        monkeypatch.setattr(lemmas, "_random_harmonic", _harmonic_by_fft)
        for kind in kinds:
            want = random_lemma_family(seed, 50, kind)
            for (v, _), (ref, _) in zip(got[kind], want, strict=True):
                if isinstance(v, DiscSuperharmonic):
                    v, ref = v.harmonic_part, ref.harmonic_part
                h, h_ref = np.array(v._h.coeffs), np.array(ref._h.coeffs)
                on_circle = v._h(lemmas._CIRCLE)
                assert len(h) == len(h_ref)
                assert np.max(np.abs(h - h_ref)) <= 1e-14 * max(1.0, np.max(np.abs(on_circle)))
                assert np.max(np.abs(on_circle.real - ref.rho)) <= 1e-13

    @pytest.mark.parametrize("seed", [2, 7, 12])
    def test_report_matches_two_loops(self, seed):
        got = harness_report(seed, 50)
        want = _report_two_loops(seed, 50)
        assert json.dumps(got) == json.dumps(want)
