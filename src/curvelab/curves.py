"""Holomorphic curves C -> P^n in polynomial-exponential closed form.

Every component is g(z) * e^{P(z)} with g, P polynomials; the three public
variants are g alone ("poly"), e^P alone ("exppoly"), and the product
("polyexp"). One kernel, CompiledCurve, evaluates log|f_k / e^{P_n}| (which is
log|f_k| on a HolomorphicCurve, where f_n = 1), u and ||f'|| with every
exponential taken relative to the largest log|f_k|, so components with Re P in
the thousands never overflow: the shared exponential factors of the Wronskian
terms cancel against the norm before exponentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CurveValidationError
from .polynomials import ComplexPoly, horner, running_rows, stack
from .quadrature import CHUNK_POINTS

GROWTH_CIRCLES = 8   # geometrically spaced circles that estimate_growth reads
THETA_NODES = 2048   # angles per circle before estimate_growth refines the sup
ZOOM_POINTS = 32     # interior angles of each bracket read at each step of that refinement


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


def _rowsum(a):
    """a.sum(axis=0) with the rows added in order: numpy sums a lone column pairwise."""
    return a.sum(axis=0) if a.size > len(a) else sum(a)


def _logsumexp(a):
    """log(sum(exp(a), axis=0)), shifted by the column max (unshifted where it is not
    finite, so all -inf gives -inf)."""
    top = a.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(_rowsum(np.exp(a - top))) + top


def _top_two(rows):
    """The largest and the second largest entry of each column of rows (two or more)."""
    top, second = np.maximum(rows[0], rows[1]), np.minimum(rows[0], rows[1])
    for row in rows[2:]:
        second = np.maximum(second, np.minimum(top, row))
        top = np.maximum(top, row)
    return top, second


def _log_abs(a):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(a))


def _abs2(a):
    return a.real * a.real + a.imag * a.imag


def _index(rows):
    """The list rows as a slice where it runs in steps of one, else as an array."""
    first = rows[0] if rows else 0
    return slice(first, first + len(rows)) if rows == list(range(first, first + len(rows))) else np.array(rows)


class _Group(NamedTuple):
    """Rows of a _Stack: those that vary (index), their rows of its coeffs, the
    constant ones (index array) and their values, shaped (rows, 1)."""
    size: int
    var: object
    rows: object
    const: np.ndarray
    values: np.ndarray


class _Stack:
    """Groups of polynomial rows of a curve for polynomials.horner, the first
    two the g_k and the P_k. The nonconstant rows are stacked once, widest
    first, so that each Horner step runs only the rows still running; a zero
    row pads a lone one to two. A constant row never enters the loop: its
    value is read once, here."""

    def __init__(self, *groups):
        polys = [p for group in groups for p in group]
        var = sorted((k for k, p in enumerate(polys) if len(p.coeffs) > 1),
                     key=lambda k: -len(polys[k].coeffs))
        self.coeffs = stack([polys[k] for k in var] + [ComplexPoly()] * (len(var) == 1))
        self.live = running_rows(self.coeffs)
        at, lo, self.groups = {k: r for r, k in enumerate(var)}, 0, []
        for group in groups:
            var = [k for k in range(len(group)) if lo + k in at]
            const = [k for k in range(len(group)) if lo + k not in at]
            values = [group[k].coeffs[0] if group[k].coeffs else 0 for k in const]
            self.groups.append(_Group(len(group), _index(var), _index([at[lo + k] for k in var]),
                                      np.array(const, dtype=int), np.array(values, dtype=complex)[:, None]))
            lo += len(group)
        g, p = self.groups[:2]
        # Re P_k and log|g_k| where they are constant, 0 where they vary
        self.re_p, self.log_g = np.zeros((2, g.size, 1))
        self.re_p[p.const], self.log_g[g.const] = p.values.real, _log_abs(g.values)

    def moduli(self, acc):
        """(Re P_k, log|f_k|) from the horner rows acc, (n+1, points) each.
        log|f_k| adds 0 and then log|g_k| to Re P_k where g_k varies, which
        rounds as Re P_k + log|g_k|."""
        g, p = self.groups[:2]
        re_p = np.repeat(self.re_p, acc.shape[1], axis=1)
        re_p[p.var] = acc.real[p.rows]
        log_f = re_p + self.log_g
        log_f[g.var] += _log_abs(acc[g.rows])
        return re_p, log_f

    def take(self, acc, group, fn, of_constant=None):
        """fn of the horner rows acc, for the rows of a group that vary, and
        of_constant (fn by default) of the values of those that do not:
        shaped (rows of the group, points)."""
        group = self.groups[group]
        if not group.const.size:
            return fn(acc[group.rows])
        out = np.empty((group.size,) + acc.shape[1:])
        out[group.var] = fn(acc[group.rows])
        out[group.const] = (of_constant or fn)(group.values)
        return out


# The one threshold between the two forms of ||f'||^2 (CompiledCurve._spherical):
# the product form stands where its factors that count are normal numbers.
_NORMAL = np.finfo(float).tiny
# An exponent far enough below -745.2, where exp rounds to +0, that no rounding lifts it.
_UNDERFLOW = -760.0


class CompiledCurve:
    """The polynomials of a homogeneous representation stacked so that one
    chunked Horner loop evaluates log|f_k|, u = log||f|| and ||f'||.

    With f_j = g_j e^{P_j} the exponents are taken as P_j - P_n, so the rows
    of log_moduli are log|f_k / e^{P_n}|, exactly log|f_k| when f_n = 1.
    ||f'||^2 = ||f||^-4 * sum_{i<j} |f_i' f_j - f_i f_j'|^2 is unchanged by
    the common factor, and each Wronskian term is e^{P_i + P_j} times the
    pair polynomial w_ij = h_i g_j - g_i h_j, h_j = g_j' + g_j P_j'. One
    _Stack holds the g_k and P_k, for log|f_k| and u; a second holds these
    and the w_ij, i < j, for ||f'||.
    """

    def __init__(self, components):
        m = len(components)
        g = [c.poly_factor for c in components]
        p = [c.exponent - components[-1].exponent for c in components]
        h = [gj.deriv() + gj * pj.deriv() for gj, pj in zip(g, p)]
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        self.m = m
        self._g, self._p = g, p
        self._moduli = _Stack(g, p)
        self._all = _Stack(g, p, [h[i] * g[j] - g[i] * h[j] for i, j in pairs])
        self._first = np.array([i for i, _ in pairs], dtype=int)
        self._second = np.array([j for _, j in pairs], dtype=int)
        # the rows of the pairs (i, j > i) of each i
        self._blocks = [slice(i * m - i * (i + 1) // 2, (i + 1) * m - (i + 1) * (i + 2) // 2) for i in range(m - 1)]

    def log_moduli(self, z):
        """(n+1, *z.shape) rows log|f_k(z)|, -inf at zeros of g_k."""
        return self._chunked(self._log_moduli, z, (self.m,))

    @cached_property
    def _slopes(self):    # the rows g_k, g_k' and P_k', stacked on first use
        return stack(self._g + [q.deriv() for q in self._g] + [q.deriv() for q in self._p])

    def log_derivatives(self, z):
        """(n+1, N) rows f_k'/f_k = g_k'/g_k + P_k' at the N points of a flat
        z (P_k taken as P_k - P_n, like log_moduli); not finite at zeros of g_k."""
        acc, m = horner(self._slopes, np.asarray(z, dtype=complex)), self.m
        with np.errstate(divide="ignore", invalid="ignore"):
            return acc[m:2 * m] / acc[:m] + acc[2 * m:]

    def u(self, z):
        """log ||f(z)|| at z, any shape; a float for a scalar z."""
        return self._chunked(lambda w: 0.5 * _logsumexp(2.0 * self._log_moduli(w)), z)

    def spherical_derivative(self, z, squared=False):
        """||f'|| at z, or ||f'||^2 when squared, any shape; a float for a
        scalar z."""
        return self._chunked(lambda w: self._spherical(w, squared), z)

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
        rows = self._moduli
        return rows.moduli(horner(rows.coeffs, z, rows.live))[1]

    def _spherical(self, z, squared):
        """With E_k = exp(Re P_k - top), top the largest log|f_k|,
        ||f'||^2 = sum_{i<j} |w_ij|^2 E_i^2 E_j^2 / (sum_k |g_k|^2 E_k^2)^2:
        one exp per component. The product form stands where the E_k^2 of
        the two largest log|f_k| and the numerator are normal numbers and
        neither sum overflows; there every term that counts keeps its bits.
        The log form reads the other points."""
        rows = self._all
        acc = horner(rows.coeffs, z, rows.live)
        # points out of range overflow or meet inf * 0 here, and fall back
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            e, log_f = rows.moduli(acc)
            # |.|^2 of every Horner row, in place: re^2 + im^2 in the real parts
            parts = acc.view(float)
            parts *= parts
            acc.real += acc.imag
            g2, w2 = (rows.take(acc.real, group, np.ascontiguousarray, _abs2) for group in (0, 2))
            del acc, parts   # freed first: a lower peak per chunk avoids heap trim-and-regrow churn
            top, second = _top_two(log_f)
            e -= top
            np.exp(e, out=e)
            e *= e
            ok = np.min(e, axis=0, where=log_f >= second, initial=np.inf) >= _NORMAL
            del log_f, second
            g2 *= e
            den = _rowsum(g2)
            for i, block in enumerate(self._blocks):
                w2[block] *= e[i]
                w2[block] *= e[i + 1:]
            num = _rowsum(w2)
            out = num / den / den if squared else np.sqrt(num) / den
            ok &= (num >= _NORMAL) & (np.maximum(num, den) < np.inf)
        if not ok.all():
            bad = ~ok
            out[bad] = self._log_form(z[bad], squared)
        return out

    def _log_form(self, z, squared):
        """||f'|| (or its square) as exp(log num - log den), every term in log
        domain, for the points out of the product form's range. As log den >= 0,
        the exponent is at most q_(1) + q_(2) + max log|w_ij| + log(pairs)/2,
        q_(1) and q_(2) the two largest q = Re P - top: below _UNDERFLOW the
        exp is +0, and only the other points run the sums."""
        rows = self._all
        acc = horner(rows.coeffs, z, rows.live)
        re_p, log_g = rows.take(acc, 1, np.real), rows.take(acc, 0, _log_abs)
        log_w = rows.take(acc, 2, _log_abs)
        del acc
        # exponents relative to the largest log|f_k|, which cancels between
        # numerator and denominator, so that no sum of exponents in the
        # thousands is rounded before they cancel
        top = (re_p + log_g).max(axis=0)
        out = np.zeros(z.shape)
        with np.errstate(invalid="ignore"):
            q = re_p - top
            first, second = _top_two(q)
            run = ~(first + second + log_w.max(axis=0) + 0.5 * math.log(len(self._first)) < _UNDERFLOW)
            q, log_g, log_w = q[:, run], log_g[:, run], log_w[:, run]
            num = 0.5 * _logsumexp(2.0 * (q[self._first] + q[self._second]) + 2.0 * log_w)
            den = _logsumexp(2.0 * (q + log_g))
            out[run] = np.exp(num - den)
        out = np.where(np.isnan(out), 0.0, out)
        with np.errstate(over="ignore"):   # ||f'||^2 may pass the double range
            return out * out if squared else out


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

    def spherical_derivative(self, z, squared=False):
        """||f'|| at z, or ||f'||^2 when squared."""
        return self.compiled.spherical_derivative(z, squared)

    def reduced_polys(self):
        """Exponents P_1, ..., P_n of the nonvanishing components."""
        return [self.components[j].exponent for j in range(1, self.n + 1)]

    def with_K(self, K):
        return HolomorphicCurve(self.n, self.components, self.sigma, K)


def estimate_growth(curve: HolomorphicCurve, r_min, r_max):
    """Least-squares estimate of the growth exponent of sup ||f'|| on
    GROWTH_CIRCLES circles from r_min to r_max, and the matching finite-radius
    surrogate for the constant K at the curve's declared sigma.

    Every circle is read on THETA_NODES angles in one call. Each sup is then
    refined from the two grid cells around the grid argmax, all circles
    together, down to a 1e-12 bracket: each step reads ZOOM_POINTS interior
    angles of every bracket and keeps the two cells around their argmax."""
    if not (0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    radii = np.geomspace(r_min, r_max, GROWTH_CIRCLES)
    step = 2 * np.pi / THETA_NODES
    vals = curve.spherical_derivative(radii[:, None] * np.exp(1j * step * np.arange(THETA_NODES)))
    a, width, sups = step * (np.argmax(vals, axis=1) - 1.0), 2 * step, vals.max(axis=1)
    cells = np.arange(1, ZOOM_POINTS + 1) / (ZOOM_POINTS + 1)
    while width > 1e-12:
        vals = curve.spherical_derivative(radii[:, None] * np.exp(1j * (a[:, None] + width * cells)))
        a = a + width * np.argmax(vals, axis=1) / (ZOOM_POINTS + 1)
        width *= 2 / (ZOOM_POINTS + 1)
        sups = np.maximum(sups, vals.max(axis=1))
    # the slope is fitted over the circles whose sup did not underflow to 0
    fit = sups > 0.0
    slope = np.polyfit(np.log(radii[fit]), np.log(sups[fit]), 1)[0] if fit.sum() >= 2 else 0.0
    K_hat = float(np.max(sups * radii ** (-curve.sigma)))
    return float(slope), K_hat
