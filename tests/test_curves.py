import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from curvelab import (
    CurveComponent,
    HolomorphicCurve,
    estimate_growth,
    load_curve,
    verify_theorem,
)
from curvelab.curves import THETA_NODES, CompiledCurve
from curvelab.errors import CurveValidationError
from curvelab.polynomials import ComplexPoly
from curvelab.quadrature import CHUNK_POINTS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestLogNorm:
    def test_two_units(self, exp_curve):
        assert exp_curve.u(0.0) == pytest.approx(math.log(math.sqrt(2)))

    def test_line_at_origin(self, line_curve):
        assert line_curve.u(0.0) == pytest.approx(0.0)

    def test_log_sum_exp_tail(self, exp_curve):
        assert exp_curve.u(100.0) == pytest.approx(
            100 + math.log(math.sqrt(1 + math.exp(-200))))


class TestSphericalDerivative:
    def test_exp_at_zero(self, exp_curve):
        assert exp_curve.spherical_derivative(0.0) == pytest.approx(0.5)

    def test_constant_curve(self, constant_curve):
        z = np.array([0.0, 1.0 + 2j, -3.0])
        assert np.all(np.asarray(constant_curve.spherical_derivative(z)) == 0.0)

    def test_line_at_zero(self, line_curve):
        assert line_curve.spherical_derivative(0.0) == pytest.approx(1.0)

    def test_classical_formula_n1(self, exp_curve):
        # for n=1 and w = f_0/f_1 this is |w'|/(1+|w|^2)
        rng = np.random.default_rng(0)
        z = rng.uniform(-3, 3, 1000) + 1j * rng.uniform(-3, 3, 1000)
        w = np.exp(z)
        classical = np.abs(w) / (1 + np.abs(w) ** 2)
        ours = np.asarray(exp_curve.spherical_derivative(z))
        assert np.max(np.abs(ours - classical) / classical) < 1e-12

    def test_permutation_invariance(self, product_curve):
        rng = np.random.default_rng(1)
        z = rng.uniform(-5, 5, 200) + 1j * rng.uniform(-5, 5, 200)
        base = np.asarray(CompiledCurve(product_curve.components).spherical_derivative(z))
        perm = (product_curve.components[2], product_curve.components[0],
                product_curve.components[1])
        other = np.asarray(CompiledCurve(perm).spherical_derivative(z))
        assert np.allclose(base, other, rtol=1e-12, atol=1e-300)


class TestValidation:
    def test_vanishing_middle_component_rejected(self):
        with pytest.raises(CurveValidationError, match="nonvanishing"):
            HolomorphicCurve(2, (CurveComponent.poly([0, 1]),
                                 CurveComponent.poly([0, 1]),
                                 CurveComponent.one()), 0.0)

    def test_last_component_must_be_one(self):
        with pytest.raises(CurveValidationError, match="constant 1"):
            HolomorphicCurve(1, (CurveComponent.one(),
                                 CurveComponent.exp_poly([0, 1])), 0.0)
        with pytest.raises(CurveValidationError, match="constant 1"):
            HolomorphicCurve(1, (CurveComponent.one(), CurveComponent.poly([1])), 0.0)

    def test_degree_cap(self):
        with pytest.raises(CurveValidationError, match="exceeds"):
            HolomorphicCurve(2, (CurveComponent.poly([0, 1]),
                                 CurveComponent.exp_poly([0, 0, 0, 1]),
                                 CurveComponent.one()), 0.0)
        # same exponent fine once sigma is raised
        HolomorphicCurve(2, (CurveComponent.poly([0, 1]),
                             CurveComponent.exp_poly([0, 0, 0, 1]),
                             CurveComponent.one()), 0.5)

    @pytest.mark.parametrize("sigma, K", [
        (math.inf, None), (math.nan, None), (-0.5, None),
        (0.0, math.inf), (0.0, math.nan), (0.0, 0.0)])
    def test_sigma_and_K_finite(self, sigma, K):
        with pytest.raises(CurveValidationError, match="sigma" if K is None else "K"):
            HolomorphicCurve(1, (CurveComponent.poly([0, 1]), CurveComponent.one()), sigma, K)


class TestEstimateGrowth:
    def test_exp_curve_K(self, exp_curve):
        sigma_hat, k_hat = estimate_growth(exp_curve, 5.0, 60.0, 8)
        assert abs(sigma_hat) < 1e-6
        assert k_hat == pytest.approx(0.5, abs=1e-6)

    def test_constant_curve_degenerate(self, constant_curve):
        assert estimate_growth(constant_curve, 1.0, 10.0, 4) == (0.0, 0.0)

    def test_underflowing_sups_take_no_log_of_zero(self):
        # sigma = 20, f_0 = e^{z^41}: on the outer circles ||f'|| underflows
        # to 0 at every grid angle, and the slope is fitted without them
        curve = HolomorphicCurve(
            1, (CurveComponent.exp_poly([0] * 41 + [1]), CurveComponent.one()), 20.0)
        radii = np.geomspace(1.0, 20.0, 8)
        grid = curve.spherical_derivative(radii[:, None] * np.exp(1j * np.linspace(0, 6, 64)))
        assert np.any(grid.max(axis=1) == 0.0) and np.any(grid.max(axis=1) > 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope, k_hat = estimate_growth(curve, 1.0, 20.0, 8)
            report = verify_theorem(curve, np.geomspace(1.0, 20.0, 16))
        assert math.isfinite(slope) and k_hat > 0.0
        assert report.K == max(k_hat, 1e-12)

    def test_square_exp_slope(self, square_exp_curve):
        sigma_hat, k_hat = estimate_growth(square_exp_curve, 5.0, 20.0, 8)
        assert sigma_hat == pytest.approx(1.0, abs=1e-6)
        assert k_hat == pytest.approx(1.0, abs=1e-6)

    def test_sharp_peak_sup(self):
        # n = 1, sigma = 1, f_0 = Q e^P with deg P = 4 and K omitted: at
        # r = 20 the sup of ||f'|| is a spike 4.2e-6 rad wide at half height,
        # near a zero of Q where Re P is large, and the r = 20 circle sets K.
        q = [-0.08488019026801545 + 0.47045248205467055j,
             -0.5818658321430112 - 0.13631571227931955j,
             -0.32660855923794924 + 0.6580151547228593j]
        p = [0.6337877044304207 - 0.7163535494466291j,
             -1.3426670649596935 + 0.4269588087895828j,
             1.0525432172668536 - 0.5129413252027069j,
             -0.1845817565478242 - 0.42691100702985285j,
             0.8968066845663726 + 0.3953201325533009j]
        curve = HolomorphicCurve(1, (CurveComponent.poly_exp(q, p), CurveComponent.one()), 1.0)
        r = 20.0
        _, k_hat = estimate_growth(curve, 1.0, r, 8)
        # reference: a 2,000,001-point scan of the two grid cells around the
        # grid argmax, then 100,001 points over the two scan cells around the
        # scan argmax (the scan alone lies 7.6e-9 below the peak)
        step = 2 * np.pi / THETA_NODES
        grid = curve.spherical_derivative(r * np.exp(1j * step * np.arange(THETA_NODES)))
        k = int(np.argmax(grid))
        theta = np.linspace(step * (k - 1), step * (k + 1), 2_000_001)
        i = int(np.argmax(curve.spherical_derivative(r * np.exp(1j * theta))))
        theta = np.linspace(theta[i - 1], theta[i + 1], 100_001)
        dense = np.max(curve.spherical_derivative(r * np.exp(1j * theta)))
        assert k_hat * r == pytest.approx(dense, rel=1e-10)


def _random_curve(rng, n, sigma, kind0):
    """An in-spec curve with complex N(0, 0.5^2) coefficients; f_0 has a
    degree-2 factor Q unless it is a pure exponential."""
    cap = math.floor(2 * sigma + 2)

    def coeffs(degree):
        return rng.normal(0.0, 0.5, degree + 1) + 1j * rng.normal(0.0, 0.5, degree + 1)

    first = {"poly": lambda: CurveComponent.poly(coeffs(2)),
             "exppoly": lambda: CurveComponent.exp_poly(coeffs(cap)),
             "polyexp": lambda: CurveComponent.poly_exp(coeffs(2), coeffs(cap))}[kind0]()
    comps = [first] + [CurveComponent.exp_poly(coeffs(cap)) for _ in range(1, n)]
    return HolomorphicCurve(n, tuple(comps) + (CurveComponent.one(),), sigma)


def _mp_spherical(curve, z):
    """||f'|| at z in 50-digit arithmetic, straight from the definition."""
    with mpmath.workdps(50):
        x = mpmath.mpc(z)

        def ev(coeffs):
            acc = mpmath.mpc(0)
            for c in reversed(coeffs):
                acc = acc * x + mpmath.mpc(c)
            return acc

        def der(coeffs):
            return [k * c for k, c in enumerate(coeffs)][1:]

        f, df = [], []
        for comp in curve.components:
            g, p = comp.poly_factor.coeffs, comp.exponent.coeffs
            e = mpmath.exp(ev(p))
            f.append(ev(g) * e)
            df.append((ev(der(g)) + ev(g) * ev(der(p))) * e)
        norm2 = mpmath.fsum(abs(v) ** 2 for v in f)
        wronski = mpmath.fsum(abs(df[i] * f[j] - f[i] * df[j]) ** 2
                              for i in range(len(f)) for j in range(i + 1, len(f)))
        return float(mpmath.sqrt(wronski) / norm2)


class TestCompiledKernelOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_mpmath(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 3
        sigma = (0.0, 0.5, 1.0)[seed % 3]
        kind0 = ("poly", "polyexp", "exppoly")[seed % 3]
        curve = _random_curve(rng, n, sigma, kind0)
        points = [0.0] + list(rng.normal(0.0, 2.0, 8) + 1j * rng.normal(0.0, 2.0, 8))
        if kind0 != "exppoly":
            points += list(np.roots(curve.components[0].poly_factor.coeffs[::-1]))
        ours = curve.spherical_derivative(np.array(points))
        for z, value in zip(points, ours):
            assert value == pytest.approx(_mp_spherical(curve, z), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_real_parts_in_the_thousands(self, seed):
        # f_0 and f_1 share an exponent up to a linear term, so ||f'|| stays
        # representable where Re P is in the thousands of either sign. The
        # value's condition number there is about |z P'(z)| times the unit
        # roundoff, a few 1e-13, which leaves room below the tolerance.
        rng = np.random.default_rng(100 + seed)
        sigma = (0.0, 1.0)[seed % 2]
        base = _random_curve(rng, 2, sigma, "exppoly")
        p1 = base.components[1].exponent
        shift = rng.normal(0.0, 0.5, 2) + 1j * rng.normal(0.0, 0.5, 2)
        curve = HolomorphicCurve(2, (
            CurveComponent.poly_exp(rng.normal(0.0, 0.5, 3), p1 + ComplexPoly(shift)),
            base.components[1], base.components[2]), sigma)
        radius = 60.0 if sigma == 0.0 else 8.0
        z = radius * rng.uniform(0.5, 1.0, 4000) * np.exp(2j * np.pi * rng.uniform(size=4000))
        big = np.abs(np.asarray(p1(z)).real)
        z = z[(big > 1000.0) & (big < 2000.0)][:12]
        assert z.size == 12
        ours = curve.spherical_derivative(z)
        for point, value in zip(z, ours):
            oracle = _mp_spherical(curve, point)
            if oracle < 1e-290:
                assert value < 1e-280
            else:
                assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_scalar_and_shapes(self, product_curve):
        assert isinstance(product_curve.spherical_derivative(0.5 + 1j), float)
        assert isinstance(product_curve.spherical_derivative(np.complex128(2.0)), float)
        rng = np.random.default_rng(7)
        z = rng.normal(size=(3, 5000)) + 1j * rng.normal(size=(3, 5000))
        grid = product_curve.spherical_derivative(z)
        assert grid.shape == (3, 5000)
        assert product_curve.spherical_derivative(z[1]).shape == (5000,)
        # the kernel works in chunks; rows evaluated alone give the same values
        for row in range(3):
            assert np.array_equal(grid[row], product_curve.spherical_derivative(z[row]))

    def test_compiled_once_per_curve(self, product_curve):
        assert product_curve.compiled is product_curve.compiled


def _logsumexp_u(stack):
    """0.5 * log(sum_k exp(2 stack_k)) by the column-max shift."""
    a = 2.0 * stack
    top = a.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return 0.5 * (np.log(np.exp(a - top).sum(axis=0)) + top)


class TestLogModuliKernel:
    """The compiled rows against CurveComponent.log_modulus, bit for bit."""

    @staticmethod
    def _curves():
        curves = [load_curve(path) for path in sorted(FIXTURES.glob("*.json"))]
        rng = np.random.default_rng(2024)
        for n, sigma, kind0 in [(1, 0.0, "poly"), (2, 0.5, "polyexp"), (3, 1.0, "exppoly"),
                                (6, 1.0, "polyexp"), (4, 0.0, "poly")]:
            curves.append(_random_curve(rng, n, sigma, kind0))
        # g_0(0) = 0 exactly, so row 0 is -inf at z = 0
        curves.append(HolomorphicCurve(2, (
            CurveComponent.poly_exp([0, 0.3 - 0.2j, 1j], [0.1, -0.4j, 0.2, 0.7]),
            CurveComponent.exp_poly([0.5, 0.1j, -0.3, 0.2j]), CurveComponent.one()), 1.0))
        return curves

    @staticmethod
    def _points():
        rng = np.random.default_rng(5)
        cloud = rng.normal(0.0, 3.0, 600) + 1j * rng.normal(0.0, 3.0, 600)
        far = 40.0 * np.exp(2j * np.pi * rng.uniform(size=300))    # |Re P| in the thousands
        return [0.0, 0.5 - 2j, np.complex128(-3.0), cloud, np.append(far, 0.0),
                cloud[:400].reshape(20, 20), np.empty(0), np.empty((3, 0)),
                rng.normal(size=(2, CHUNK_POINTS)) * 8 + 1j * rng.normal(size=(2, CHUNK_POINTS))]

    def test_rows_and_u_bit_identical(self):
        thousands = minus_inf = 0
        for curve in self._curves():
            compiled = curve.compiled
            for z in self._points():
                stack = np.stack([c.log_modulus(z) for c in curve.components])
                rows = compiled.log_moduli(z)
                assert rows.shape == (curve.n + 1,) + np.shape(z)
                assert np.array_equal(rows, stack, equal_nan=True)
                u = curve.u(z)
                if np.ndim(z) == 0:
                    assert type(u) is float
                assert np.array_equal(u, _logsumexp_u(stack), equal_nan=True)
                thousands += np.sum(np.abs(stack[1:]) > 1000.0)
                minus_inf += np.sum(stack[0] == -np.inf)
        assert thousands > 0 and minus_inf > 0
