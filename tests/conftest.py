import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from curvelab import CurveComponent, HolomorphicCurve

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BENCH = FIXTURES.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """import_module for the benchmark's modules, with bench/ on sys.path for
    the test: the tests read them and change nothing there."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


@pytest.fixture(scope="session")
def complex_multiply_fuses():
    """Whether numpy's complex array multiply rounds otherwise than Python's
    complex product, which does not fuse: about half of random products differ
    where it does. Recorded bits pick their golden by it."""
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    return any(complex(x) * complex(y) != p for x, y, p in zip(a, b, a * b))


@pytest.fixture(scope="session")
def simd_exp_log():
    """Whether numpy's float64 exp, log and log1p round otherwise than the
    math module's: they do under AVX-512 dispatch, where numpy runs its own
    vector loops (about one exp in twenty differs), and not under AVX2 or
    baseline dispatch, where it calls libm. Recorded bits pick their golden
    by it and by complex_multiply_fuses."""
    rng = np.random.default_rng(0)
    x, y = rng.uniform(-700.0, 700.0, 1024), np.exp(rng.uniform(-700.0, 700.0, 1024))
    pairs = ((math.exp, np.exp, x), (math.log, np.log, y), (math.log1p, np.log1p, y))
    return any(fn(float(v)) != w for fn, ufunc, args in pairs for v, w in zip(args, ufunc(args)))


@pytest.fixture
def line_curve():
    """(z, 1): rational curve, closed-form characteristic."""
    return HolomorphicCurve(1, (CurveComponent.poly([0, 1]), CurveComponent.one()),
                            0.0, 1.0)


@pytest.fixture
def exp_curve():
    """(e^z, 1): bounded spherical derivative, K = 1/2."""
    return HolomorphicCurve(1, (CurveComponent.exp_poly([0, 1]), CurveComponent.one()),
                            0.0, 0.5)


@pytest.fixture
def product_curve():
    """(z e^z, e^z, 1): n = 2, f_0 with a zero."""
    return HolomorphicCurve(
        2,
        (CurveComponent.poly_exp([0, 1], [0, 1]),
         CurveComponent.exp_poly([0, 1]),
         CurveComponent.one()),
        0.0, 0.55)


@pytest.fixture
def square_exp_curve():
    """(e^{z^2}, 1): sigma = 1."""
    return HolomorphicCurve(
        1, (CurveComponent.exp_poly([0, 0, 1]), CurveComponent.one()), 1.0, 1.05)


@pytest.fixture
def constant_curve():
    return HolomorphicCurve(1, (CurveComponent.poly([1]), CurveComponent.one()),
                            0.0, 1.0)
