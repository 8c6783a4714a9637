"""Disc potential theory: the unit-disc Green kernel and randomized
verification harnesses for the two gradient inequalities

    harmonic case:      v(a) <= 2R |grad v(z1)|,
    superharmonic case: mass of B(a, R/2) <= 3R |grad v(z1)|,

for nonnegative v on the closed disc B(a, R) vanishing at a boundary point z1.
Everything is computed in unit-disc coordinates w = (z - a)/R; both statements
are affine-covariant, so gradients pick up a single 1/R factor.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .polynomials import ComplexPoly, circle_angles, horner

GRID_SIZE = 4096
# the boundary angle grid 2*pi*k/GRID_SIZE on the unit circle, shared by every instance
_CIRCLE = np.exp(1j * (np.arange(GRID_SIZE) * (2 * np.pi / GRID_SIZE)))
BOUNDARY_TOL = 1e-10   # relative |v(z1)| above which z1 is not a boundary zero
_MAX_ATOMS = 4         # atoms of a superharmonic instance, at most
_NONZERO_AT_Z1 = "precondition violated: v(z1) = {!r}, expected 0"
_ATOM_ON_HALF_CIRCLE = "atom too close to the half-radius circle; mass ill-defined"


def green_disc(z, zeta):
    """Green function of the unit disc: log|1 - z*conj(zeta)| - log|z - zeta|.

    Symmetric, zero on |z| = 1, +inf at the pole z = zeta (returned as inf for
    the caller to handle).
    """
    z = complex(z)
    zeta = complex(zeta)
    if z == zeta:
        return math.inf
    return math.log(abs(1 - z * np.conj(zeta))) - math.log(abs(z - zeta))


def green_boundary_normal(theta, zeta):
    """|dG/d|z|| at the boundary point e^{i theta}: the Poisson-kernel value
    (1 - |zeta|^2) / |e^{i theta} - zeta|^2."""
    w = np.exp(1j * np.asarray(theta))
    return (1.0 - abs(zeta) ** 2) / np.abs(w - zeta) ** 2


def green_boundary_min(zeta_abs=0.5):
    """Minimum of the boundary normal derivative over a 720-point circle grid
    for a real pole of the given modulus. The minimum is at the antipodal
    point (theta = pi, or 0 for a negative modulus), which is a grid point."""
    grid = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    vals = green_boundary_normal(grid, complex(zeta_abs))
    k = int(np.argmin(vals))
    return float(vals[k]), float(grid[k])


def _green_gradient_unit(w, zeta):
    """Gradient (as a complex vector) of G(., zeta) at w in the unit disc."""
    return np.conj(-np.conj(zeta) / (1 - w * np.conj(zeta)) - 1.0 / (w - zeta))


class DiscHarmonic:
    """Nonnegative harmonic function on a closed disc.

    Internally v = Re h(w) in unit-disc coordinates, where h is either a
    polynomial (the analytic completion of a boundary trigonometric density)
    or an explicitly supplied analytic function.
    """

    def __init__(self, center, radius, h, h_prime):
        self.center = complex(center)
        self.radius = float(radius)
        self._h = h
        self._h_prime = h_prime

    @classmethod
    def from_real_part_poly(cls, center, radius, poly, constant=0.0):
        """v = Re poly(w) + constant in unit-disc coordinates."""
        poly = poly if isinstance(poly, ComplexPoly) else ComplexPoly(poly)
        h = poly + ComplexPoly.constant(constant)
        return cls(center, radius, h, h.deriv())

    @classmethod
    def halfplane_kernel(cls):
        """v = Re((1 + w)/(1 - w)) on the unit disc: the sharpness witness of
        the harmonic inequality at z1 = -1."""
        return cls(0.0, 1.0,
                   lambda w: (1 + w) / (1 - w),
                   lambda w: 2.0 / (1 - w) ** 2)

    def _local(self, z):
        return (complex(z) - self.center) / self.radius

    def value(self, z):
        return complex(self._h(self._local(z))).real

    def grad(self, z):
        """Gradient of v as a complex vector, conj(h'(w))/R."""
        return np.conj(complex(self._h_prime(self._local(z)))) / self.radius


@dataclass
class DiscSuperharmonic:
    """Green potential of finitely many atoms plus a nonnegative harmonic
    part; the Riesz measure is exactly the listed atoms."""

    center: complex
    radius: float
    masses: list                     # (location zeta, weight) pairs, zeta inside
    harmonic_part: DiscHarmonic | None = None

    def _local(self, z):
        return (complex(z) - self.center) / self.radius

    def value(self, z):
        w = self._local(z)
        total = sum(wt * green_disc(w, self._local(zeta)) for zeta, wt in self.masses)
        if self.harmonic_part is not None:
            total += self.harmonic_part.value(z)
        return total

    def grad(self, z):
        w = self._local(z)
        g = sum(wt * _green_gradient_unit(w, self._local(zeta))
                for zeta, wt in self.masses)
        g = g / self.radius
        if self.harmonic_part is not None:
            g += self.harmonic_part.grad(z)
        return g

    def mass_inner_half(self):
        return sum(wt for zeta, wt in self.masses
                   if abs(zeta - self.center) < self.radius / 2)


def verify_lemma1(v: DiscHarmonic, z1):
    """Check v(a) <= 2R |grad v(z1)| for a nonnegative harmonic v vanishing at
    the boundary point z1. Returns (lhs, rhs, margin)."""
    val, lhs = v.value(z1), v.value(v.center)
    if abs(val) > BOUNDARY_TOL * max(1.0, abs(lhs)):
        raise ValueError(_NONZERO_AT_Z1.format(val))
    rhs = 2.0 * v.radius * abs(v.grad(z1))
    return lhs, rhs, rhs - lhs


def verify_lemma2(v: DiscSuperharmonic, z1):
    """Check mass(B(a, R/2)) <= 3R |grad v(z1)|. Returns (mass, rhs, margin)."""
    val = v.value(z1)
    scale = 1.0 + sum(wt for _, wt in v.masses)
    if abs(val) > BOUNDARY_TOL * scale:
        raise ValueError(_NONZERO_AT_Z1.format(val))
    for zeta, _ in v.masses:
        if abs(abs(zeta - v.center) - v.radius / 2) < 1e-6 * v.radius:
            raise ValueError(_ATOM_ON_HALF_CIRCLE)
    mass = v.mass_inner_half()
    rhs = 3.0 * v.radius * abs(v.grad(z1))
    return mass, rhs, rhs - mass


def _draw(rng, superharmonic):
    """One instance's draws, in the order they leave rng: the centre, the
    radius, the boundary zero w1 = _CIRCLE[k1], the coefficients of
    q = (w - w1) p, and for a superharmonic instance its atoms (else None).
    Each uniform(a, b) is drawn as a + (b - a) * random(), numpy's own double."""
    x, y, u = rng.random(3).tolist()
    center, radius = complex(-2 + 4 * x, -2 + 4 * y), 0.5 + 2 * u
    w1 = _CIRCLE[int(rng.integers(0, GRID_SIZE))]
    p = rng.normal(size=(int(rng.integers(0, 4)) + 1, 2)).view(complex)[:, 0]
    if p[-1] == 0:      # trimmed as ComplexPoly trims; the zero polynomial becomes 1
        p = np.trim_zeros(p, "b") if p.any() else np.ones(1)
    q = np.convolve([-w1, 1.0], p)
    if not superharmonic:
        return center, radius, w1, q, None
    masses = []
    for _ in range(int(rng.integers(1, _MAX_ATOMS + 1))):
        while True:
            rho = math.sqrt(0.9 * rng.random())
            if abs(rho - 0.5) > 1e-3:
                break
        phi = (2 * np.pi) * rng.random()
        zeta = center + radius * rho * np.exp(1j * phi)
        masses.append((zeta, float(rng.exponential(1.0))))
    return center, radius, w1, q, masses


def _grid_top(qs, autocorr):
    """max |q|^2 over _CIRCLE for each coefficient array q in qs, given its
    autocorrelation r_k = sum_j q_{j+k} conj(q_j), k >= 0.

    rho = |q(e^{i theta})|^2 has rho' = Re p(e^{i theta}), p = sum_k 2ik r_k z^k,
    and the grid argmax has a critical angle of rho within one grid step. So q
    is evaluated, by polynomials.horner, only at the grid indices
    floor(theta/step) + (-1, 0, 1, 2) around every angle from one
    circle_angles solve at r = 1 per (length of q, last k with r_k != 0).
    """
    groups = {}
    for i, (q, r) in enumerate(zip(qs, autocorr)):
        d = len(r) - 1
        while d and r[d] == 0:      # r_m = q_m conj(q_0) vanishes when q_0 = 0
            d -= 1
        groups.setdefault((len(q), d), []).append(i)
    tops = np.empty(len(qs))
    for (_, d), rows in groups.items():
        if d == 0:      # |q| is constant on the circle: read every grid point
            idx = np.broadcast_to(np.arange(GRID_SIZE), (len(rows), GRID_SIZE))
        else:
            p = np.array([autocorr[i][:d + 1] for i in rows]) * (2j * np.arange(d + 1))
            base = np.floor(circle_angles(p, (1.0,))[:, 0] * (GRID_SIZE / (2 * np.pi))).astype(int)
            idx = (base[..., None] + np.arange(-1, 3)).reshape(len(rows), -1) % GRID_SIZE
        acc = horner(np.array([qs[i] for i in rows]), _CIRCLE[idx])
        tops[rows] = np.max(np.abs(acc) ** 2, axis=1)
    return tops


_Family = namedtuple("_Family", "center radius z1 h zeta weight live")


def _families(*specs):
    """random_lemma_family(seed, count, kind) for each spec (seed, count,
    kind) as a _Family, one row per instance: centres, radii, boundary zeros,
    h zero-padded to at least 2 columns, and four atom slots, each with its
    location, weight and whether it was drawn; an empty slot sits at the
    centre with weight 0. Every instance of every spec is drawn first, and
    every top comes from one _grid_top call."""
    drawn, families = [], []
    for seed, count, kind in specs:
        if kind not in ("harmonic", "superharmonic", "mixed"):
            raise ValueError(f"kind must be 'harmonic', 'superharmonic' or 'mixed', got {kind!r}")
        rng = np.random.default_rng(seed)
        drawn.append([_draw(rng, kind == "superharmonic" or (kind == "mixed" and k % 2 == 1))
                      for k in range(count)])
    corr = [[np.correlate(q, q, "full")[len(q) - 1:] for _, _, _, q, _ in draws] for draws in drawn]
    tops = _grid_top([d[3] for draws in drawn for d in draws], [r for rs in corr for r in rs])
    for draws, autocorr, top in zip(drawn, corr, np.split(tops, np.cumsum([len(d) for d in drawn])[:-1])):
        center = np.array([d[0] for d in draws], dtype=complex)
        h = np.zeros((len(draws), max([len(r) for r in autocorr] + [2])), dtype=complex)
        zeta, weight = np.repeat(center[:, None], _MAX_ATOMS, axis=1), np.zeros((len(draws), _MAX_ATOMS))
        for i, ((*_, masses), r) in enumerate(zip(draws, autocorr)):
            h[i, :len(r)] = r
            if masses:
                zeta[i, :len(masses)], weight[i, :len(masses)] = zip(*masses)
        h *= (10.0 / top)[:, None]
        h[:, 1:] *= 2.0
        live = np.arange(_MAX_ATOMS) < np.array([len(d[4] or ()) for d in draws], dtype=int)[:, None]
        z1 = np.array([a + r * w1 for a, r, w1, _, _ in draws], dtype=complex)
        families.append(_Family(center, np.array([d[1] for d in draws]), z1, h, zeta, weight, live))
    return families


def _instance(family, i):
    """Instance i of a _Family as the pair (v, z1) of random_lemma_family."""
    v = DiscHarmonic.from_real_part_poly(family.center[i], family.radius[i], family.h[i])
    live = family.live[i]
    masses = list(zip(family.zeta[i, live], family.weight[i, live].tolist()))
    return (DiscSuperharmonic(v.center, v.radius, masses, v) if masses else v), family.z1[i]


def random_lemma_family(seed, count, kind="mixed"):
    """Deterministic family of lemma instances paired with their boundary
    zero z1. kind is one of "harmonic", "superharmonic", "mixed".

    Every instance is drawn first, in rng order; then one _grid_top call gives
    every top. A harmonic part has the boundary density |q(e^{i theta})|^2
    scaled to a grid maximum of 10, so v = Re h, h = c_0 + 2 sum_k c_k w^k,
    where c is the autocorrelation of q's coefficients times 10 / top.
    """
    family = _families((seed, count, kind))[0]
    return [_instance(family, i) for i in range(count)]


# The array margins round every operation as the scalar verifiers do: numpy's
# array complex add and divide round as its scalar ones, but its multiply may
# fuse (FMA), its abs and log round otherwise, and CPython divides otherwise.
_log = np.frompyfunc(math.log, 1, 1)


def _times(a, b):
    """a * b from real products, as the scalar complex multiply rounds it."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def _horner(c, x):
    """Each row of c (ascending) at its own point x, by Horner steps in real products."""
    acc = c[:, -1]
    for k in range(c.shape[1] - 2, -1, -1):
        acc = _times(acc, x) + c[:, k]
    return acc


def _py_divide(n, d):
    """n / d as CPython's complex division rounds it: Smith's method, dividing
    by the scaled denominator where numpy multiplies by its reciprocal."""
    big = np.abs(d.real) >= np.abs(d.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(big, d.imag / d.real, d.real / d.imag)
        denom = np.where(big, d.real + d.imag * ratio, d.real * ratio + d.imag)
        re = np.where(big, n.real + n.imag * ratio, n.real * ratio + n.imag)
        im = np.where(big, n.imag - n.real * ratio, n.imag * ratio - n.real)
    return re / denom + 1j * (im / denom)


def _margins(family):
    """verify_lemma1(v, z1)[2] for each instance of a _Family without atoms and
    verify_lemma2(v, z1)[2] for each with, bit for bit; a failed precondition
    raises the verifier's ValueError for the first instance that fails one."""
    center, radius, z1, h, atoms, weight, live = family
    w = _py_divide(z1 - center, radius)
    val, lhs = _horner(h, w).real, h.real[:, 0]
    grad = np.conj(_horner(h[:, 1:] * np.arange(1, h.shape[1]), w)) / radius    # conj(h'(w)) / R
    offset = atoms - center[:, None]
    zeta, w = _py_divide(offset, radius[:, None]), w[:, None]
    den = 1 - _times(w, np.conj(zeta))
    green = _log(np.hypot(den.real, den.imag)) - _log(np.hypot((w - zeta).real, (w - zeta).imag))
    terms = weight * np.conj(-np.conj(zeta) / den - _py_divide(1.0, w - zeta))
    dist = np.hypot(offset.real, offset.imag)
    value = total = mass = s = 0.0
    for g, wt, d, t in zip(green.T.astype(float), weight.T, dist.T, terms.T):    # in sum's order
        value, total, s = value + wt * g, total + wt, s + t
        mass = mass + np.where(d < radius / 2, wt, 0.0)
    harmonic, value = ~live.any(axis=1), value + val
    scale = np.where(harmonic, np.maximum(1.0, np.abs(lhs)), 1.0 + total)
    bad_value = np.abs(value) > BOUNDARY_TOL * scale
    bad_atom = live & (np.abs(dist - radius[:, None] / 2) < 1e-6 * radius[:, None])
    bad = np.flatnonzero(bad_value | bad_atom.any(axis=1))
    if bad.size:
        raise ValueError(_NONZERO_AT_Z1.format(float(value[bad[0]])) if bad_value[bad[0]]
                         else _ATOM_ON_HALF_CIRCLE)
    g = s / radius + grad
    rhs = np.where(harmonic, 2.0, 3.0) * radius * np.hypot(g.real, g.imag)
    return rhs - np.where(harmonic, lhs, mass)


def harness_report(seed, count):
    """Run both harnesses and report per-instance margins as a dict (the JSON
    interface consumed by the CLI). The failure list must be empty."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    report, failures = {"seed": seed, "count": count}, []
    families = _families((seed, count, "harmonic"), (seed + 1, count, "superharmonic"))
    for kind, family in zip(("harmonic", "superharmonic"), families):
        margins = _margins(family).tolist()
        failures += [{"kind": kind, "index": idx, "margin": margin}
                     for idx, margin in enumerate(margins) if margin < -1e-8]
        report[f"{kind}_min_margin"] = min(margins)
    report["green_kernel_min"], _ = green_boundary_min(0.5)
    report["failures"] = failures
    return report
