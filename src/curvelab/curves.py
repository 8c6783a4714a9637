"""Holomorphic curves C -> P^n in polynomial-exponential closed form.

Every component is g(z) * e^{P(z)} with g, P polynomials; the three public
variants are g alone ("poly"), e^P alone ("exppoly"), and the product
("polyexp"). One kernel, CompiledCurve, evaluates log|f_k / e^{P_n}| (which is
log|f_k| on a HolomorphicCurve, where f_n = 1), u and ||f'|| in log domain, so
components with Re P in the thousands never overflow: the shared exponential
factors of the Wronskian terms cancel against the norm before exponentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CurveValidationError
from .polynomials import ComplexPoly, horner, stack
from .quadrature import CHUNK_POINTS

THETA_NODES = 2048   # angles per circle before estimate_growth refines the sup
_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class CurveComponent:
    """One entire component g(z) * e^{P(z)}."""

    poly_factor: ComplexPoly  # g
    exponent: ComplexPoly     # P
    kind: str                 # "poly" | "exppoly" | "polyexp"

    @classmethod
    def poly(cls, q):
        q = q if isinstance(q, ComplexPoly) else ComplexPoly(q)
        return cls(q, ComplexPoly(), "poly")

    @classmethod
    def exp_poly(cls, p):
        p = p if isinstance(p, ComplexPoly) else ComplexPoly(p)
        return cls(ComplexPoly.constant(1.0), p, "exppoly")

    @classmethod
    def poly_exp(cls, q, p):
        q = q if isinstance(q, ComplexPoly) else ComplexPoly(q)
        p = p if isinstance(p, ComplexPoly) else ComplexPoly(p)
        return cls(q, p, "polyexp")

    @classmethod
    def one(cls):
        return cls.exp_poly(ComplexPoly())

    @property
    def nonvanishing(self):
        return self.kind == "exppoly"

    def log_modulus(self, z):
        """log |g(z) e^{P(z)}|, vectorized; -inf at zeros of g."""
        with np.errstate(divide="ignore"):
            return self.exponent(z).real + np.log(np.abs(self.poly_factor(z)))

    def log_derivative(self, z):
        """f'/f = g'/g + P', finite away from zeros of g."""
        return self.poly_factor.deriv()(z) / self.poly_factor(z) + self.exponent.deriv()(z)


def _logsumexp(a):
    """log(sum(exp(a), axis=0)), shifted by the column max (unshifted where it is not
    finite, so all -inf gives -inf). Rows add in order; numpy sums a lone column pairwise."""
    top = a.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.exp(a - top)
        return np.log(e.sum(axis=0) if e.size > len(e) else sum(e)) + top


class CompiledCurve:
    """The polynomials of a homogeneous representation stacked so that one
    chunked Horner loop evaluates log|f_k|, u = log||f|| and ||f'||.

    With f_j = g_j e^{P_j} the exponents are taken as P_j - P_n, so the rows
    of log_moduli are log|f_k / e^{P_n}|, exactly log|f_k| when f_n = 1.
    ||f'||^2 = ||f||^-4 * sum_{i<j} |f_i' f_j - f_i f_j'|^2 is unchanged by
    the common factor, and each Wronskian term is e^{P_i + P_j} times the
    pair polynomial h_i g_j - g_i h_j, h_j = g_j' + g_j P_j'. The stack holds
    g_0..g_n, the exponents and the pair polynomials for i < j, ascending and
    zero-padded; log|f_k| and u read the first 2(n+1) rows at their width.
    """

    def __init__(self, components):
        m = len(components)
        g = [c.poly_factor for c in components]
        p = [c.exponent - components[-1].exponent for c in components]
        h = [gj.deriv() + gj * pj.deriv() for gj, pj in zip(g, p)]
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        self.coeffs = stack(g + p + [h[i] * g[j] - g[i] * h[j] for i, j in pairs])
        self.m = m
        self._moduli = stack(g + p)
        self._first = np.array([i for i, _ in pairs], dtype=int)
        self._second = np.array([j for _, j in pairs], dtype=int)

    def log_moduli(self, z):
        """(n+1, *z.shape) rows log|f_k(z)|, -inf at zeros of g_k."""
        return self._chunked(self._log_moduli, z, (self.m,))

    def u(self, z):
        """log ||f(z)|| at z, any shape; a float for a scalar z."""
        return self._chunked(lambda w: 0.5 * _logsumexp(2.0 * self._log_moduli(w)), z)

    def spherical_derivative(self, z):
        """||f'|| at z, any shape; a float for a scalar z."""
        return self._chunked(self._spherical, z)

    @staticmethod
    def _chunked(kernel, z, rows=()):
        """kernel on CHUNK_POINTS slices of z, shaped rows + z.shape."""
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)
        out = np.empty(rows + flat.shape)
        for start in range(0, flat.size, CHUNK_POINTS):
            stop = start + CHUNK_POINTS
            out[..., start:stop] = kernel(flat[start:stop])
        out = out.reshape(rows + z.shape)
        return out if out.shape else float(out)

    def _log_moduli(self, z):
        acc = horner(self._moduli, z)
        with np.errstate(divide="ignore"):
            return acc[self.m:].real + np.log(np.abs(acc[:self.m]))

    def _spherical(self, z):
        m = self.m
        acc = horner(self.coeffs, z)
        with np.errstate(divide="ignore"):
            log_g = np.log(np.abs(acc[:m]))
            log_w = np.log(np.abs(acc[2 * m:]))
        # exponents relative to the largest log|f_k|, which cancels between
        # numerator and denominator, so that no sum of exponents in the
        # thousands is rounded before they cancel
        re_p = acc[m:2 * m].real.copy()
        del acc   # freed first: a lower peak per chunk avoids heap trim-and-regrow churn
        top = (re_p + log_g).max(axis=0)
        with np.errstate(invalid="ignore"):
            q = re_p - top
            num = 0.5 * _logsumexp(2.0 * (q[self._first] + q[self._second]) + 2.0 * log_w)
            den = _logsumexp(2.0 * (q + log_g))
            out = np.exp(num - den)
        return np.where(np.isnan(out), 0.0, out)


@dataclass(frozen=True)
class HolomorphicCurve:
    """Homogeneous representation (f_0, ..., f_n) with f_n = 1 and
    f_1, ..., f_n nonvanishing (the omitted hyperplanes are {w_j = 0})."""

    n: int
    components: tuple
    sigma: float
    K: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise CurveValidationError("target dimension n must be >= 1")
        if len(self.components) != self.n + 1:
            raise CurveValidationError(
                f"expected {self.n + 1} components for n={self.n}, got {len(self.components)}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise CurveValidationError("sigma must be finite and nonnegative")
        if self.K is not None and not (math.isfinite(self.K) and self.K > 0):
            raise CurveValidationError("K must be positive and finite when declared")
        last = self.components[-1]
        if not (last.nonvanishing and last.exponent.is_zero):
            raise CurveValidationError(f"component {self.n} must be the constant 1")
        deg_cap = math.floor(2 * self.sigma + 2)
        for j in range(1, self.n + 1):
            comp = self.components[j]
            if not comp.nonvanishing:
                raise CurveValidationError(f"component {j} must be nonvanishing")
            if comp.exponent.degree() > deg_cap:
                raise CurveValidationError(
                    f"component {j}: deg P = {comp.exponent.degree()} exceeds "
                    f"floor(2*sigma+2) = {deg_cap}")

    # -- evaluation -----------------------------------------------------------

    def u(self, z):
        """log ||f(z)||; nonnegative because |f_n| = 1."""
        return self.compiled.u(z)

    @cached_property
    def compiled(self):
        """The CompiledCurve of the components, built on first use."""
        return CompiledCurve(self.components)

    def spherical_derivative(self, z):
        return self.compiled.spherical_derivative(z)

    def reduced_polys(self):
        """Exponents P_1, ..., P_n of the nonvanishing components."""
        return [self.components[j].exponent for j in range(1, self.n + 1)]

    def with_K(self, K):
        return HolomorphicCurve(self.n, self.components, self.sigma, K)


def estimate_growth(curve: HolomorphicCurve, r_min, r_max, circles=8):
    """Least-squares estimate of the growth exponent of sup ||f'|| on circles,
    and the matching finite-radius surrogate for the constant K at the
    curve's declared sigma.

    Every circle is read on THETA_NODES angles in one call, and each sup is
    refined by golden-section search over the two grid cells around the grid
    argmax, all circles together, down to a 1e-12 bracket.
    """
    if not (0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    if circles < 4:
        raise ValueError("need at least 4 circles")
    radii = np.geomspace(r_min, r_max, circles)
    step = 2 * np.pi / THETA_NODES
    vals = curve.spherical_derivative(radii[:, None] * np.exp(1j * step * np.arange(THETA_NODES)))
    a = step * (np.argmax(vals, axis=1) - 1.0)
    b = a + 2 * step
    sups = vals.max(axis=1)
    while np.max(b - a) > 1e-12:
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        fc, fd = curve.spherical_derivative(radii * np.exp(1j * np.stack([c, d])))
        a, b = np.where(fc > fd, a, c), np.where(fc > fd, d, b)
        sups = np.maximum.reduce([sups, fc, fd])
    # the slope is fitted over the circles whose sup did not underflow to 0
    fit = sups > 0.0
    slope = np.polyfit(np.log(radii[fit]), np.log(sups[fit]), 1)[0] if fit.sum() >= 2 else 0.0
    K_hat = float(np.max(sups * radii ** (-curve.sigma)))
    return float(slope), K_hat
