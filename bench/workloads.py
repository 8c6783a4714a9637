"""Seeded inputs, operations and independent output checks for the curvelab
benchmark.

A workload is a fixed, ordered list of operations built from the workload
seed. One pass runs every operation once. Each operation calls the public
functions that the matching CLI command calls and returns its outputs; the
check that follows it compares those outputs with a route that shares no
code with the one under test, and names the kind of every failure it finds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import curvelab as cl

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

KINDS = ("poly", "exppoly", "polyexp")
SIGMAS = (0.0, 0.5, 1.0)
COEFF_SCALE = 0.5          # coefficients are complex N(0, 0.5^2) per part
ZERO_DEGREE = 2            # degree of Q in f_0 = Q or Q e^P, so f_0 has zeros

TABLE_TOL = 1e-8           # `curvelab characteristic` default --tol
TABLE_FIXTURE_RADII = (2.0, 10.0)
# (n, sigma, r) of the generated table curves: every (n, sigma) cell once,
# with component 0 cycling through the three kinds. Rows at r = 4 take up to
# twice as long as at r = 2, so r = 4 is used for n = 1 and for (2, 0), which
# keeps the generated rows near 20 s; (1, 1) at r = 4 is where build_table's
# cross-check fails near zeros of f_0. r stays <= 4: a sigma = 1 row at r = 8
# takes 20 s.
TABLE_CELLS = (
    (1, 0.0, 4.0), (1, 0.5, 4.0), (1, 1.0, 4.0),
    (2, 0.0, 4.0), (2, 0.5, 2.0), (2, 1.0, 2.0),
    (3, 0.0, 2.0), (3, 0.5, 2.0), (3, 1.0, 2.0),
)
NT_STEP = 1e-3             # centred-difference step for r * dT_jensen/dr
NT_RTOL = 1e-4

LOCUS_RMAX = 40.0          # `curvelab locus --rmax 40`
VERIFY_GRID = tuple(np.geomspace(1.0, 20.0, 16))   # `curvelab verify-bound`
VERIFY_TAIL_FRACTION = 0.25                        # verify_theorem default
DENSE_NODES = 1 << 16
TSTAR_RTOL = 1e-6
NU_RTOL = 1e-2

# Per-op time limits in seconds at the reference speed (reference.py); the
# runner scales them by the slowdown measured just before each op. The
# nested quadrature has no wall-time budget: some in-spec sigma = 1 rows
# exhaust the 2^20-node trapezoid budget and run for minutes, and a run must
# end in 180 s. The table limit is about 1.3 times the slowest row that
# completes and 3 times the median row (src/ at 1782 lines), so such a row
# counts as a timeout at little more than a normal row's cost. Rows timed out
# on one to five table seeds in ten, nearly always the (1, 1, 4) cell. The
# other limits are about three times the slowest op seen.
TABLE_TIME_LIMIT_S = 4.0
LOCUS_TIME_LIMIT_S = 15.0
LEMMA_TIME_LIMIT_S = 15.0

# How strongly a workload's op latencies follow the reference kernel's
# slowdown (reference.py): the runner divides a latency by the slowdown
# raised to this power. Fitted as the slope of log latency against log
# slowdown for the fixture ops, whose inputs never change: locus-bound and
# lemmas ops follow the kernel in full (0.9 to 1.05). Table rows follow it
# less, and by how much depends on the load the host is under: the slope was
# 0.5 to 0.8 by row over 30 runs and with a second process loading the
# other core, but ten later runs under heavier load were steadiest near 1.
TABLE_SENSITIVITY = 0.8
SENSITIVITY = 1.0

LEMMA_OPS = 12
LEMMA_COUNT = 250
GREEN_MIN = 1.0 / 3.0
GREEN_TOL = 1e-9


@dataclass
class Op:
    label: str
    call: Callable[[], dict]            # timed; returns the op's outputs
    check: Callable[[dict], list]       # untimed; returns failure kinds


@dataclass
class Workload:
    specs: dict                         # file name -> spec dict, generated
    make_ops: Callable[[dict], list]    # parsed curves by file name -> ops
    warmup: Callable[[dict], Op]        # untimed op of the workload's kind
    time_limit_s: float                 # an op past it fails as "timeout"
    sensitivity: float                  # see SENSITIVITY


# -- seeded curve specs ---------------------------------------------------------

def _coeffs(rng, degree):
    parts = rng.normal(0.0, COEFF_SCALE, size=(degree + 1, 2))
    return [[float(re), float(im)] for re, im in parts]


def curve_spec(rng, n, sigma, kind0, declare_K=True):
    """An in-spec curve: deg P_j = floor(2 sigma + 2) for j < n, f_n = 1."""
    cap = math.floor(2 * sigma + 2)
    if kind0 == "poly":
        first = {"type": "poly", "Q": _coeffs(rng, ZERO_DEGREE)}
    elif kind0 == "exppoly":
        first = {"type": "exppoly", "P": _coeffs(rng, cap)}
    else:
        first = {"type": "polyexp", "Q": _coeffs(rng, ZERO_DEGREE), "P": _coeffs(rng, cap)}
    comps = [first] + [{"type": "exppoly", "P": _coeffs(rng, cap)} for _ in range(1, n)]
    comps.append({"type": "exppoly", "P": []})
    spec = {"n": n, "sigma": sigma, "components": comps}
    if declare_K:
        spec["K"] = 1.0
    return spec


def spec_bytes(spec):
    return (json.dumps(spec, indent=1) + "\n").encode()


def write_specs(specs, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    for name, spec in specs.items():
        (directory / name).write_bytes(spec_bytes(spec))


def load_curves(specs, directory: Path):
    """Parse the written specs and the fixtures with `load_curve`."""
    curves = {name: cl.load_curve(directory / name) for name in specs}
    for path in sorted(FIXTURES.glob("*.json")):
        curves[path.name] = cl.load_curve(path)
    return curves


def fixture_names():
    return [path.name for path in sorted(FIXTURES.glob("*.json"))]


# -- failure classification -------------------------------------------------------

def failure_kind(stage, exc):
    """Name of a stage failure, or None when curvelab does not own the error
    (the benchmark cannot account for it)."""
    if type(exc) is RuntimeError and "characteristic routes disagree" in str(exc):
        return "crosscheck"
    if type(exc).__module__.startswith("curvelab"):
        return f"{stage}:{type(exc).__name__}"
    return None


def _stage(out, stage, fn):
    """Run one stage of an op; a raise is recorded, never propagated, so the
    op's remaining stages still run."""
    try:
        return fn()
    except Exception as exc:  # the op boundary keeps the run going
        out["errors"].append((stage, exc))
        return None


def error_kinds(out):
    return [failure_kind(stage, exc) or f"{stage}:unexpected:{type(exc).__name__}"
            for stage, exc in out["errors"]]


def unexpected_errors(out):
    return [(stage, exc) for stage, exc in out["errors"] if failure_kind(stage, exc) is None]


# -- independent references -------------------------------------------------------

def _horner(coeffs, z):
    out = np.zeros_like(z)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _circle(r):
    return r * np.exp(1j * np.arange(DENSE_NODES) * (2 * np.pi / DENSE_NODES))


def dense_tstar(polys, r):
    """T*(r) by a dense periodic trapezoid of max_j Re P_j."""
    z = _circle(r)
    vals = np.max([_horner(p.coeffs, z).real for p in polys], axis=0)
    at0 = max(complex(p.coeffs[0]).real if p.coeffs else 0.0 for p in polys)
    return float(np.mean(vals)) - at0


def dense_jensen_derivative(polys, r):
    """r d/dr of the circle mean of u* = max_j Re P_j: the mean of
    Re(z P_w'(z)) over the circle, P_w the winner at each angle. It equals
    the Riesz mass of u* in |z| <= r."""
    z = _circle(r)
    vals = np.stack([_horner(p.coeffs, z).real for p in polys])
    winner = np.argmax(vals, axis=0)
    radial = np.stack([(z * _horner([k * c for k, c in enumerate(p.coeffs)][1:], z)).real
                       for p in polys])
    return float(np.mean(np.take_along_axis(radial, winner[None, :], axis=0)))


def _close(value, reference, rtol):
    return value == reference or abs(value - reference) <= rtol * abs(reference)


def nt_failures(curve, r, n_value):
    """n(r) against r * dT_jensen/dr by a centred difference."""
    tj_hi = cl.characteristic_jensen(curve, r + NT_STEP, TABLE_TOL)
    tj_lo = cl.characteristic_jensen(curve, r - NT_STEP, TABLE_TOL)
    reference = r * (tj_hi - tj_lo) / (2 * NT_STEP)
    return [] if _close(n_value, reference, NT_RTOL) else ["n_t_mismatch"]


def tstar_failures(polys, radii, tstar_values):
    bad = any(not _close(t, dense_tstar(polys, r), TSTAR_RTOL)
              for r, t in zip(radii, tstar_values))
    return ["tstar_mismatch"] if bad else []


def nu_failures(polys, r0, radii, nu_values):
    base = dense_jensen_derivative(polys, r0)
    bad = any(not _close(nu, dense_jensen_derivative(polys, t) - base, NU_RTOL)
              for t, nu in zip(radii, nu_values))
    return ["nu_mismatch"] if bad else []


def lemma_failures(report):
    kinds = []
    if report["failures"]:
        kinds.append("lemma_failures")
    if abs(report["green_kernel_min"] - GREEN_MIN) > GREEN_TOL:
        kinds.append("green_min_mismatch")
    return kinds


# -- table: `curvelab characteristic` ----------------------------------------------

def _table_call(curve, r):
    out = {"errors": []}
    out["table"] = _stage(out, "table", lambda: cl.build_table(curve, [r], tol=TABLE_TOL))
    return out


def _table_check(curve, r):
    def check(out):
        kinds = error_kinds(out)
        if out["table"] is not None:
            kinds += nt_failures(curve, r, out["table"].n_counting[0])
        return kinds
    return check


def _table_op(label, curve, r):
    return Op(f"{label}@r={r:g}", lambda: _table_call(curve, r), _table_check(curve, r))


def table_workload(seed):
    rng = np.random.default_rng([seed, 1])
    specs = {}
    for idx, (n, sigma, _) in enumerate(TABLE_CELLS):
        kind0 = KINDS[idx % len(KINDS)]
        specs[f"table{idx:02d}.json"] = curve_spec(rng, n, sigma, kind0)

    def make_ops(curves):
        ops = [_table_op(name, curves[name], r)
               for name in fixture_names() for r in TABLE_FIXTURE_RADII]
        ops += [_table_op(name, curves[name], cell[2])
                for name, cell in zip(specs, TABLE_CELLS)]
        return ops

    return Workload(specs, make_ops,
                    lambda curves: _table_op("squareexp.json", curves["squareexp.json"], 2.0),
                    TABLE_TIME_LIMIT_S, TABLE_SENSITIVITY)


# -- locus-bound: `curvelab locus --rmax 40`, then `curvelab verify-bound` ------------

def _locus_bound_call(curve):
    out = {"errors": [], "summary": None, "asymptotics": None, "report": None}
    polys = curve.reduced_polys()

    def locus():
        out["r0"] = cl.regularity_radius(polys)
        out["summary"] = cl.trace_branches(polys, out["r0"], max(LOCUS_RMAX, 4 * out["r0"]))
        out["asymptotics"] = [cl.branch_asymptotics(br) for br in out["summary"].branches]

    _stage(out, "locus", locus)
    out["report"] = _stage(out, "verify", lambda: cl.verify_theorem(curve, VERIFY_GRID))
    return out


def tail_radii():
    start = int(math.floor(len(VERIFY_GRID) * (1 - VERIFY_TAIL_FRACTION)))
    return VERIFY_GRID[start:]


def riesz_radii(r0):
    return (2.0 * r0, 3.0 * r0)


def _locus_bound_check(curve):
    def check(out):
        kinds = error_kinds(out)
        polys = curve.reduced_polys()
        if out["report"] is not None:
            radii = tail_radii()
            tstar = [cl.reduced_characteristic(curve, r) for r in radii]
            kinds += tstar_failures(polys, radii, tstar)
        summary = out["summary"]
        if summary is not None and summary.branches:
            radii = riesz_radii(summary.r0)
            nu = [cl.riesz_of_max(polys, t, r0=summary.r0, summary=summary) for t in radii]
            kinds += nu_failures(polys, summary.r0, radii, nu)
        return kinds
    return check


def _locus_bound_op(label, curve):
    return Op(label, lambda: _locus_bound_call(curve), _locus_bound_check(curve))


def locus_bound_design():
    """(n, sigma, K declared) of the generated curves: each n in 1..6 at each
    of the three sigmas, K declared on every other curve and omitted on the
    rest so that `estimate_growth` runs on half of them."""
    return [(n, sigma, (n + k) % 2 == 0)
            for n in range(1, 7) for k, sigma in enumerate(SIGMAS)]


def locus_bound_workload(seed):
    rng = np.random.default_rng([seed, 2])
    specs = {}
    for idx, (n, sigma, declare_K) in enumerate(locus_bound_design()):
        specs[f"locus{idx:02d}.json"] = curve_spec(
            rng, n, sigma, KINDS[idx % len(KINDS)], declare_K)

    def make_ops(curves):
        names = fixture_names() + list(specs)
        return [_locus_bound_op(name, curves[name]) for name in names]

    def warmup(curves):
        # K omitted so that the warm-up also imports scipy.optimize
        return _locus_bound_op("product2.json(no K)", curves["product2.json"].with_K(None))

    return Workload(specs, make_ops, warmup, LOCUS_TIME_LIMIT_S, SENSITIVITY)


# -- lemmas: `curvelab lemmas` --------------------------------------------------------

def _lemma_op(label, seed):
    def call():
        out = {"errors": []}
        out["report"] = _stage(out, "lemmas", lambda: cl.harness_report(seed, LEMMA_COUNT))
        return out

    def check(out):
        kinds = error_kinds(out)
        if out["report"] is not None:
            kinds += lemma_failures(out["report"])
        return kinds

    return Op(label, call, check)


def lemma_seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence([seed, 3]).generate_state(count)]


def lemmas_workload(seed):
    seeds = lemma_seeds(seed, LEMMA_OPS + 1)

    def make_ops(curves):
        return [_lemma_op(f"harness(seed={s})", s) for s in seeds[1:]]

    return Workload({}, make_ops,
                    lambda curves: _lemma_op(f"harness(seed={seeds[0]})", seeds[0]),
                    LEMMA_TIME_LIMIT_S, SENSITIVITY)


WORKLOADS = {
    "table": table_workload,
    "locus-bound": locus_bound_workload,
    "lemmas": lemmas_workload,
}


# -- output fingerprints ----------------------------------------------------------------

def fingerprint(out):
    """A string that changes when any output number of the op changes."""
    parts = [f"{stage}:{type(exc).__name__}:{exc}" for stage, exc in out["errors"]]
    table = out.get("table")
    if table is not None:
        parts.append(table.to_json())
    summary = out.get("summary")
    if summary is not None:
        parts.append(repr((summary.r0, summary.b, summary.c0)))
        for br in summary.branches:
            parts.append(br.points.tobytes().hex() + br.densities.tobytes().hex())
    if out.get("asymptotics") is not None:
        parts.append(repr(out["asymptotics"]))
    report = out.get("report")
    if isinstance(report, dict):
        parts.append(json.dumps(report, sort_keys=True))
    elif report is not None:
        parts.append(report.to_json())
    return "\n".join(parts)
