import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import curvelab.curves
import curvelab.pipeline
from curvelab import (
    CurveComponent,
    HolomorphicCurve,
    estimate_growth,
    load_curve,
    parse_curve,
    verify_theorem,
)
from curvelab.characteristic import switch_points
from curvelab.curves import CompiledCurve
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


@pytest.mark.identity
class TestEstimateGrowth:
    def test_exp_curve_K(self, exp_curve):
        # ||f'|| = |e^z| / (1 + |e^z|^2), at most 1/2, on Re z = 0
        assert _growth(exp_curve, np.geomspace(5.0, 60.0, 8)) == pytest.approx(0.5, abs=1e-6)

    def test_constant_curve_degenerate(self, constant_curve):
        assert _growth(constant_curve, np.geomspace(1.0, 10.0, 8)) == 0.0

    def test_underflowing_sups_take_no_log_of_zero(self):
        # sigma = 20, f_0 = e^{z^41}: on the outer circles ||f'|| underflows
        # to 0 at every coarse angle, but not at the 82 ties Re z^41 = 0
        curve = HolomorphicCurve(
            1, (CurveComponent.exp_poly([0] * 41 + [1]), CurveComponent.one()), 20.0)
        radii = np.geomspace(1.0, 20.0, 8)
        grid = curve.spherical_derivative(radii[:, None] * np.exp(1j * np.linspace(0, 6, 64)))
        assert np.any(grid.max(axis=1) == 0.0) and np.any(grid.max(axis=1) > 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k_hat = _growth(curve, radii)
            report = verify_theorem(curve, np.geomspace(1.0, 20.0, 16))
        assert k_hat > 0.0
        assert report.K == max(_growth(curve, report.K_radii), 1e-12)

    def test_square_exp_slope(self, square_exp_curve):
        # ||f'|| = |2z e^{z^2}| / (1 + |e^{z^2}|^2) peaks at |z| on the ties
        # Re z^2 = 0: the sup grows with slope 1 in log r, K = 1 on every circle
        for r in (5.0, 9.0, 20.0):
            assert _growth(square_exp_curve, [r]) == pytest.approx(1.0, abs=1e-6)

    def test_sharp_peak_sup(self):
        # n = 1, sigma = 1, f_0 = Q e^P with deg P = 4 and K omitted: at
        # r = 20 ||f'|| spikes, a few 1e-6 rad wide at half height, where
        # |f_0| = 1 (u_0 = u_1) near the zeros of Q, and the r = 20 circle sets K.
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
        k_hat = _growth(curve, np.geomspace(1.0, r, 8))
        # reference: the 8 sign changes of log|f_0| on 2^20 angles; around
        # each a 200,001-point scan from one cell before to two after, then
        # 100,001 points over the two scan cells around the scan argmax (the
        # spike a 2048-angle grid picks lies 2.0 % below the highest)
        step = 2 * np.pi / (1 << 20)
        theta = step * np.arange(1 << 20)
        gap = curve.compiled.log_moduli(r * np.exp(1j * theta))[0]
        dense = 0.0
        for k in np.flatnonzero((gap > 0) != (np.roll(gap, -1) > 0)):
            t = np.linspace(theta[k] - step, theta[k] + 2 * step, 200_001)
            i = int(np.argmax(curve.spherical_derivative(r * np.exp(1j * t))))
            t = np.linspace(t[i - 1], t[i + 1], 100_001)
            dense = max(dense, np.max(curve.spherical_derivative(r * np.exp(1j * t))))
        assert k_hat * r == pytest.approx(dense, rel=1e-10)

    def test_K_as_recorded(self):
        # K on 8 circles from 1 to 20 of product2 without its K and of three
        # seeded K-omitted curves, as float.hex, recorded when the sups were
        # first read from the switch points and a 256-angle grid
        curves = [load_curve(FIXTURES / "product2.json").with_K(None)]
        curves += [_random_curve(np.random.default_rng(seed), n, sigma, kind)
                   for seed, n, sigma, kind in [(31, 1, 1.0, "polyexp"), (32, 2, 0.5, "exppoly"),
                                                (33, 3, 1.0, "poly")]]
        for curve, recorded in zip(curves, RECORDED_GROWTH):
            k_hat = _growth(curve, np.geomspace(1.0, 20.0, 8))
            assert k_hat == pytest.approx(float.fromhex(recorded), rel=1e-12, abs=0.0)

    def test_zoom_work_and_K(self, monkeypatch):
        # at most 10 calls of ||f'|| (the grid with the switch points, and 9
        # zoom steps), and K no lower than a 2^14-angle scan of its circles
        curves = [_random_curve(np.random.default_rng(seed), n, sigma, kind)
                  for seed, n, sigma, kind in [(41, 2, 1.0, "polyexp"), (42, 4, 0.5, "poly"),
                                               (43, 6, 0.0, "exppoly")]]
        radii = np.geomspace(1.0, 20.0, 8)
        calls = []
        original = HolomorphicCurve.spherical_derivative
        monkeypatch.setattr(HolomorphicCurve, "spherical_derivative",
                            lambda self, z, squared=False: calls.append(1) or original(self, z, squared))
        for curve in curves:
            switches = switch_points(curve, radii)
            calls.clear()
            k_hat = estimate_growth(curve, radii, switches)
            assert len(calls) <= 10
            assert k_hat >= (1 - 1e-12) * _scanned_K(curve, radii, 1 << 14)


def _growth(curve, radii):
    """estimate_growth on the circles |z| = radii from their own switch points."""
    return estimate_growth(curve, radii, switch_points(curve, radii))


def _scanned_K(curve, radii, nodes):
    """max over the circles of ||f'|| / r^sigma on ``nodes`` angles of each."""
    theta = 2 * np.pi * np.arange(nodes) / nodes
    return max(float(curve.spherical_derivative(r * np.exp(1j * theta)).max()) * r ** -curve.sigma for r in radii)


RECORDED_GROWTH = ["0x1.5b3ccc334725bp-1", "0x1.f9f4edda3fb9cp+9", "0x1.c90d4e570b97ep+5", "0x1.cdf0cb0592eefp+8"]


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


@pytest.mark.identity
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

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_underflow_band(self, sigma, monkeypatch):
        # n = 2 with exponents of degree 3 or 4 whose terms are each about 300
        # in size on |z| = 20: round that circle the two largest log|f_k| run
        # from tied to more than 700 apart, so ||f'|| runs from 1e-310 to
        # 1e-95. The product form stands where the E_k^2 of the two largest
        # and the numerator are normal numbers; the log form reads the rest,
        # which on this circle is a gap past about 350 and ||f'|| below about
        # 1e-150. Twelve points spread over that range in log scale, and nine
        # whose gaps span 280 to 360, across the hand-off.
        rng = np.random.default_rng(0)
        degree = math.floor(2 * sigma + 2)

        def exponent():
            return (rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)) * 300.0 / 20.0 ** np.arange(degree + 1)

        q = rng.normal(size=3) + 1j * rng.normal(size=3)
        curve = HolomorphicCurve(2, (CurveComponent.poly_exp(q, exponent()),
                                     CurveComponent.exp_poly(exponent()), CurveComponent.one()), sigma)
        z = 20.0 * np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14))
        logged = []
        log_form = CompiledCurve._log_form
        monkeypatch.setattr(CompiledCurve, "_log_form",
                            lambda self, w, squared: logged.extend(w) or log_form(self, w, squared))
        with np.errstate(divide="ignore"):
            grid = np.log10(curve.spherical_derivative(z))
        read = np.isin(z, logged)
        assert grid[read].max() < -149.4 and grid[~read].min() >= -152.2
        top, second = np.sort(curve.compiled.log_moduli(z), axis=0)[:-3:-1]
        band = [int(np.argmin(np.abs(top - second - target))) for target in np.linspace(280, 360, 9)]
        assert 0 < read[band].sum() < len(band)
        z = z[[int(np.argmin(np.abs(grid - target))) for target in np.linspace(-310, -95, 12)] + band]
        ours = curve.spherical_derivative(z)
        oracles = [_mp_spherical(curve, point) for point in z]
        assert min(oracles) < 1e-300 and max(oracles) > 1e-100
        for value, oracle in zip(ours, oracles):
            if oracle < 1e-290:
                assert value < 1e-280
            else:
                assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)
        assert sum(1e-250 <= oracle < 1e-135 for oracle in oracles) >= 3

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


@pytest.mark.identity
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


@pytest.mark.identity
def test_kernel_values_whatever_the_chunk(monkeypatch):
    # the kernel works through its points CHUNK_POINTS at a time; ||f'||, u
    # and log|f_k| are the same bits at any chunk size, one point included
    curves = [load_curve(path) for path in sorted(FIXTURES.glob("*.json"))]
    rng = np.random.default_rng(18)
    for n in range(1, 7):
        curves.append(_random_curve(rng, n, (0.0, 0.5, 1.0)[n % 3], ("poly", "polyexp")[n % 2]))
    # g_0(0) = 0 exactly
    curves.append(HolomorphicCurve(2, (
        CurveComponent.poly_exp([0, 0.3 - 0.2j, 1j], [0.1, -0.4j, 0.2, 0.7]),
        CurveComponent.exp_poly([0.5, 0.1j, -0.3, 0.2j]), CurveComponent.one()), 1.0))
    cloud = rng.normal(0.0, 3.0, 500) + 1j * rng.normal(0.0, 3.0, 500)
    far = 40.0 * np.exp(2j * np.pi * rng.uniform(size=300))    # |Re P| in the thousands
    points = [np.complex128(0.0), np.concatenate([cloud, far, [0.0]]), cloud[:400].reshape(20, 20)]
    big = rng.normal(size=(2, CHUNK_POINTS)) * 8 + 1j * rng.normal(size=(2, CHUNK_POINTS))
    thousands = zeros = 0
    for curve in curves:
        compiled = curve.compiled
        kernels = (compiled.spherical_derivative, compiled.u, compiled.log_moduli)
        expected = [[kernel(z) for z in points + [big]] for kernel in kernels]
        for size in (1, 7, 1000, CHUNK_POINTS):
            monkeypatch.setattr(curvelab.curves, "CHUNK_POINTS", size)
            for kernel, wants in zip(kernels, expected):
                for z, want in zip(points + ([big] if size > 1 else []), wants):
                    got = kernel(z)
                    assert type(got) is type(want) and np.array_equal(got, want)
        rows = compiled.log_moduli(points[1])
        thousands += np.sum(np.abs(rows[1:]) > 1000.0)
        zeros += np.sum(rows[0] == -np.inf)
    assert thousands > 0 and zeros > 0


def _unbounded_log_form(self, z, squared):
    """CompiledCurve._log_form without its underflow bound: every point runs
    the log-domain sums."""
    rows = self._all
    acc = curvelab.curves.horner(rows.coeffs, z, rows.live)
    re_p, log_g = rows.take(acc, 1, np.real), rows.take(acc, 0, curvelab.curves._log_abs)
    log_w = rows.take(acc, 2, curvelab.curves._log_abs)
    top = (re_p + log_g).max(axis=0)
    with np.errstate(invalid="ignore"):
        q = re_p - top
        num = 0.5 * curvelab.curves._logsumexp(2.0 * (q[self._first] + q[self._second]) + 2.0 * log_w)
        den = curvelab.curves._logsumexp(2.0 * (q + log_g))
        out = np.exp(num - den)
    out = np.where(np.isnan(out), 0.0, out)
    return out * out if squared else out



def _log_form_work(monkeypatch):
    """[points handed to CompiledCurve._log_form, points its sums read],
    counted from the call on."""
    work, inside = [0, 0], []
    log_form, logsumexp = CompiledCurve._log_form, curvelab.curves._logsumexp

    def counted_form(self, z, squared):
        work[0] += z.size
        inside.append(1)
        try:
            return log_form(self, z, squared)
        finally:
            inside.pop()

    def counted_sum(a):     # called twice per _log_form call, on the same points
        work[1] += a.shape[-1] / 2 if inside else 0
        return logsumexp(a)

    monkeypatch.setattr(CompiledCurve, "_log_form", counted_form)
    monkeypatch.setattr(curvelab.curves, "_logsumexp", counted_sum)
    return work


@pytest.mark.identity
class TestLogFormBound:
    """Where its bound shows that ||f'|| underflows, _log_form writes +0
    without the sums: the bits of the unbounded form, and no warning."""

    @staticmethod
    def _assert_unmoved(curve, z, monkeypatch):
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            got = [curve.spherical_derivative(z, squared) for squared in (False, True)]
            with monkeypatch.context() as patch:
                patch.setattr(CompiledCurve, "_log_form", _unbounded_log_form)
                count = len(warned)
                want = [curve.spherical_derivative(z, squared) for squared in (False, True)]
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        # no warning that the unbounded form does not raise too
        assert {str(w.message) for w in warned[:count]} <= {str(w.message) for w in warned[count:]}

    @pytest.mark.parametrize("seed", [6, 81])
    def test_growth_grids_of_the_benchmark(self, seed, bench, monkeypatch):
        # every grid that estimate_growth reads on the curves without a
        # declared K of the locus-bound workload, as verify_theorem calls it
        workloads = bench("workloads")
        grids, sd, inside = [], HolomorphicCurve.spherical_derivative, []

        def growth(*args):
            inside.append(1)
            try:
                return estimate_growth(*args)
            finally:
                inside.pop()

        with monkeypatch.context() as patch:
            patch.setattr(curvelab.pipeline, "estimate_growth", growth)
            patch.setattr(HolomorphicCurve, "spherical_derivative",
                          lambda self, z, squared=False: inside and grids.append((self, z)) or sd(self, z, squared))
            for spec in workloads.locus_bound_workload(seed).specs.values():
                if "K" not in spec:
                    verify_theorem(parse_curve(spec), workloads.VERIFY_GRID)
        assert len({id(curve) for curve, _ in grids}) == 9
        work = _log_form_work(monkeypatch)
        for curve, z in grids:
            self._assert_unmoved(curve, z, monkeypatch)
        assert work[0] > 0 and work[0] - work[1] >= 0.75 * work[0]

    def test_thousands_and_zeros(self, monkeypatch):
        # |Re P| in the thousands, and the zeros of g_0: the exact one at 0
        # of the last curve and np.roots' of the others
        work = _log_form_work(monkeypatch)
        for curve in TestLogModuliKernel._curves():
            zeros = np.roots(curve.components[0].poly_factor.coeffs[::-1])
            for z in TestLogModuliKernel._points() + [zeros]:
                self._assert_unmoved(curve, z, monkeypatch)
        assert 0 < work[1] < work[0]

    @staticmethod
    def _huge_exponent():
        """Re P = 1e200 Re z, the spec on which the area and Jensen routes
        disagree, and a grid from 1e-205 to 1e4 over it."""
        curve = parse_curve({"n": 1, "sigma": 0, "components": [
            {"type": "exppoly", "P": [[0, 0], [1e200, 0]]}, {"type": "exppoly", "P": []}]})
        return curve, np.geomspace(1e-205, 1e4, 200)[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)

    def test_huge_exponent(self, monkeypatch):
        # |w_01|^2 = 1e400 overflows
        curve, z = self._huge_exponent()
        work = _log_form_work(monkeypatch)
        self._assert_unmoved(curve, z, monkeypatch)
        assert 0 < work[1] < work[0]

    def test_huge_exponent_squared_is_silent(self):
        # ||f'||^2 passes the double range at some of the log form's points:
        # +inf there without a warning, as in the product form
        curve, z = self._huge_exponent()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            squared = curve.spherical_derivative(z, squared=True)
        assert np.count_nonzero(np.isinf(squared)) == 495
