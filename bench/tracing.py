"""Per-layer tracing of curvelab from outside the package.

Wrappers are installed at the names the callers look up: the global of every
curvelab module bound to the original function (so `pipeline`'s imported
`trace_branches` and the package re-export are both covered), or the class
attribute for methods. A timed wrapper records a span (name, start, end,
parent span, op id); a counting wrapper only bumps counters, for functions
called too often to time. Spans stay in memory until the run ends. A layer's
self time is the time of its spans minus the part covered by their child
spans.

A target that no longer exists is reported missing with a warning, and every
metric that depends on it is null rather than 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []          # [name, start, end, parent, op]
        self.counts = Counter()
        self.missing = set()
        self._stack = []
        self._undo = []

    # -- spans ------------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def note_raise(self, name, exc):
        """Count an exception once, at the innermost span it leaves."""
        if not getattr(exc, "_bench_seen", False):
            self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            try:
                exc._bench_seen = True
            except AttributeError:
                pass

    @contextlib.contextmanager
    def recording(self, op):
        self.op, self.active = op, True
        try:
            yield
        finally:
            self.active = False

    def span_stats(self):
        """Per span name: (calls, total time, self time)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, self_time = stats.get(name, (0, 0.0, 0.0))
            stats[name] = (calls + 1, total + (end - start),
                           self_time + (end - start) - child_time[idx])
        return stats

    # -- installation --------------------------------------------------------------

    def _timed(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(tracer.counts, args)
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.note_raise(name, exc)
                raise
            finally:
                tracer.close()
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def _counted(self, fn, before):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                before(tracer.counts, args)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets):
        for target in targets:
            module_name, qualname = target.module, target.qualname
            try:
                owner = importlib.import_module(module_name)
                for part in qualname.split(".")[:-1]:
                    owner = getattr(owner, part)
                attr = qualname.split(".")[-1]
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(target.key)
                warnings.warn(f"trace target {target.key} not found; its layer metrics are null")
                continue
            if target.span is None:
                wrapper = self._counted(original, target.before)
            else:
                wrapper = self._timed(target.span, original, target.before, target.after)
            if isinstance(owner, type):
                sites = [owner]
            else:
                sites = [mod for mod_name, mod in sorted(sys.modules.items())
                         if mod_name.split(".")[0] == "curvelab"
                         and getattr(mod, attr, None) is original]
            for site in sites:
                self._undo.append((site, attr, original))
                setattr(site, attr, wrapper)

    def uninstall(self):
        while self._undo:
            site, attr, original = self._undo.pop()
            setattr(site, attr, original)

    @contextlib.contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str
    span: str | None = None         # None: count only, record no span
    before: Callable | None = None  # (counts, args) -> args
    after: Callable | None = None   # (counts, args, result) -> None

    @property
    def key(self):
        return f"{self.module}.{self.qualname}"


# -- what each wrapper counts ---------------------------------------------------------

def _count_points(key):
    def before(counts, args):
        counts[key] += int(np.size(args[1]))      # args = (self, z)
        return args
    return before


def _count_integrand(key, points):
    """Wrap the integrand (first argument) so its evaluations are counted."""
    def before(counts, args):
        f = args[0]

        def counted(x):
            counts[key] += int(np.size(x)) if points else 1
            return f(x)

        return (counted,) + tuple(args[1:])
    return before


def _poly_call(counts, args):
    counts["polynomials.eval_calls"] += 1
    if np.ndim(args[1]) == 0:
        counts["polynomials.scalar_eval_calls"] += 1
    return args


def _bump(key, amount):
    def after(counts, args, result):
        counts[key] += amount(args, result)
    return after


def _bump_before(key):
    def before(counts, args):
        counts[key] += 1
        return args
    return before


def _table_rows(counts, args):
    counts["characteristic.rows"] += len(args[1])
    return args


def _trace_result(counts, args, result):
    counts["locus.branches"] += len(result.branches)
    counts["locus.trace_points"] += sum(len(br.points) for br in result.branches)


C = "curvelab."
TARGETS = [
    Target(C + "polynomials", "ComplexPoly.__init__", before=_bump_before("polynomials.construct_calls")),
    Target(C + "polynomials", "ComplexPoly.__call__", before=_poly_call),
    Target(C + "curves", "HolomorphicCurve.spherical_derivative", "curves.sd",
           before=_count_points("curves.sd_points")),
    Target(C + "curves", "HolomorphicCurve.u", "curves.u", before=_count_points("curves.u_points")),
    Target(C + "curves", "CurveComponent.log_modulus", before=_bump_before("curves.log_modulus_calls")),
    Target(C + "curves", "estimate_growth", "curves.estimate_growth"),
    Target(C + "quadrature", "periodic_trapezoid", "quadrature.trap",
           before=_count_integrand("quadrature.trap_points", points=True)),
    Target(C + "quadrature", "adaptive_gauss", "quadrature.gl",
           before=_count_integrand("quadrature.gl_evals", points=False)),
    Target(C + "characteristic", "build_table", "characteristic.table", before=_table_rows),
    Target(C + "characteristic", "characteristic_area", "characteristic.area"),
    Target(C + "characteristic", "characteristic_jensen", "characteristic.jensen"),
    Target(C + "characteristic", "counting_function", "characteristic.count"),
    Target(C + "characteristic", "circle_mean_max_re", "characteristic.kink"),
    Target(C + "locus", "regularity_radius", "locus.regularity"),
    Target(C + "locus", "trace_branches", "locus.trace", after=_trace_result),
    Target(C + "locus", "branch_asymptotics", "locus.asymptotics"),
    Target(C + "pipeline", "verify_theorem", "pipeline.verify"),
    Target(C + "pipeline", "harvest_tie_points", "pipeline.harvest",
           after=_bump("pipeline.tie_points_harvested", lambda args, result: len(result))),
    Target(C + "pipeline", "prop1_check", "pipeline.prop1",
           after=_bump("pipeline.prop1_points", lambda args, result: len(args[1]))),
    Target(C + "pipeline", "prop2_margin", "pipeline.prop2"),
    Target(C + "lemmas", "harness_report", "lemmas.report",
           after=_bump("lemmas.margin_failures", lambda args, result: len(result["failures"]))),
    Target(C + "lemmas", "random_lemma_family", "lemmas.family",
           after=_bump("lemmas.instances", lambda args, result: len(result))),
    Target(C + "lemmas", "verify_lemma1", "lemmas.verify"),
    Target(C + "lemmas", "verify_lemma2", "lemmas.verify"),
    Target(C + "lemmas", "green_boundary_min", "lemmas.green"),
]


# -- per-layer metrics ------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den > 0 else 0.0


def _metric_table():
    """name -> (unit, the wrap targets it needs, fn(counts, stats) -> value)."""
    def calls(span):
        return lambda c, s: s.get(span, (0, 0.0, 0.0))[0]

    def self_s(span):
        return lambda c, s: s.get(span, (0, 0.0, 0.0))[2]

    def count(key):
        return lambda c, s: c[key]

    def raised(span, exc_name):
        return lambda c, s: c[f"{span}.raised.{exc_name}"]

    sd = C + "curves.HolomorphicCurve.spherical_derivative"
    u = C + "curves.HolomorphicCurve.u"
    trap, gl = C + "quadrature.periodic_trapezoid", C + "quadrature.adaptive_gauss"
    trace = C + "locus.trace_branches"
    family, report = C + "lemmas.random_lemma_family", C + "lemmas.harness_report"
    verify_l = (C + "lemmas.verify_lemma1", C + "lemmas.verify_lemma2")
    return {
        "curves.sd_calls": ("count", [sd], calls("curves.sd")),
        "curves.sd_points": ("count", [sd], count("curves.sd_points")),
        "curves.sd_self_s": ("s", [sd], self_s("curves.sd")),
        "curves.sd_points_per_s": ("1/s", [sd], lambda c, s: _ratio(
            c["curves.sd_points"], self_s("curves.sd")(c, s))),
        "curves.u_calls": ("count", [u], calls("curves.u")),
        "curves.u_points": ("count", [u], count("curves.u_points")),
        "curves.u_self_s": ("s", [u], self_s("curves.u")),
        "curves.log_modulus_calls": ("count", [C + "curves.CurveComponent.log_modulus"],
                                    count("curves.log_modulus_calls")),
        "curves.estimate_growth_self_s": ("s", [C + "curves.estimate_growth"],
                                         self_s("curves.estimate_growth")),
        "polynomials.construct_calls": ("count", [C + "polynomials.ComplexPoly.__init__"],
                                 count("polynomials.construct_calls")),
        "polynomials.eval_calls": ("count", [C + "polynomials.ComplexPoly.__call__"],
                            count("polynomials.eval_calls")),
        "polynomials.scalar_eval_calls": ("count", [C + "polynomials.ComplexPoly.__call__"],
                                   count("polynomials.scalar_eval_calls")),
        "quadrature.trap_calls": ("count", [trap], calls("quadrature.trap")),
        "quadrature.trap_points": ("count", [trap], count("quadrature.trap_points")),
        "quadrature.trap_self_s": ("s", [trap], self_s("quadrature.trap")),
        "quadrature.gl_calls": ("count", [gl], calls("quadrature.gl")),
        "quadrature.gl_evals": ("count", [gl], count("quadrature.gl_evals")),
        "quadrature.gl_self_s": ("s", [gl], self_s("quadrature.gl")),
        "quadrature.budget_errors": ("count", [trap, gl], lambda c, s: (
            raised("quadrature.trap", "QuadratureBudgetError")(c, s)
            + raised("quadrature.gl", "QuadratureBudgetError")(c, s))),
        "characteristic.rows": ("count", [C + "characteristic.build_table"], count("characteristic.rows")),
        "characteristic.area_self_s": ("s", [C + "characteristic.characteristic_area"],
                              self_s("characteristic.area")),
        "characteristic.jensen_self_s": ("s", [C + "characteristic.characteristic_jensen"],
                                self_s("characteristic.jensen")),
        "characteristic.count_self_s": ("s", [C + "characteristic.counting_function"],
                               self_s("characteristic.count")),
        "characteristic.crosscheck_failures": ("count", [C + "characteristic.build_table"],
                                      raised("characteristic.table", "RuntimeError")),
        "characteristic.n_t_mismatch": ("count", [], count("check.n_t_mismatch")),
        "characteristic.kink_calls": ("count", [C + "characteristic.circle_mean_max_re"],
                             calls("characteristic.kink")),
        "characteristic.kink_self_s": ("s", [C + "characteristic.circle_mean_max_re"],
                              self_s("characteristic.kink")),
        "characteristic.tstar_mismatch": ("count", [], count("check.tstar_mismatch")),
        "locus.trace_calls": ("count", [trace], calls("locus.trace")),
        "locus.branches": ("count", [trace], count("locus.branches")),
        "locus.trace_points": ("count", [trace], count("locus.trace_points")),
        "locus.trace_self_s": ("s", [trace], self_s("locus.trace")),
        "locus.trace_points_per_s": ("1/s", [trace], lambda c, s: _ratio(
            c["locus.trace_points"], self_s("locus.trace")(c, s))),
        "locus.asymptotics_errors": ("count", [C + "locus.branch_asymptotics"],
                                    raised("locus.asymptotics", "AsymptoticsError")),
        "locus.empty_errors": ("count", [C + "locus.regularity_radius"],
                              raised("locus.regularity", "LocusEmptyError")),
        "locus.continuation_errors": ("count", [trace], raised("locus.trace", "ContinuationError")),
        "locus.nu_mismatch": ("count", [], count("check.nu_mismatch")),
        "pipeline.verify_calls": ("count", [C + "pipeline.verify_theorem"], calls("pipeline.verify")),
        "pipeline.verify_self_s": ("s", [C + "pipeline.verify_theorem"], self_s("pipeline.verify")),
        "pipeline.harvest_self_s": ("s", [C + "pipeline.harvest_tie_points"],
                                 self_s("pipeline.harvest")),
        "pipeline.tie_points_harvested": ("count", [C + "pipeline.harvest_tie_points"],
                                       count("pipeline.tie_points_harvested")),
        "pipeline.prop1_points": ("count", [C + "pipeline.prop1_check"], count("pipeline.prop1_points")),
        "pipeline.prop1_self_s": ("s", [C + "pipeline.prop1_check"], self_s("pipeline.prop1")),
        "pipeline.prop2_self_s": ("s", [C + "pipeline.prop2_margin"], self_s("pipeline.prop2")),
        "lemmas.instances": ("count", [family], count("lemmas.instances")),
        "lemmas.family_self_s": ("s", [family], self_s("lemmas.family")),
        "lemmas.instances_per_s": ("1/s", [family, report], lambda c, s: _ratio(
            c["lemmas.instances"], s.get("lemmas.report", (0, 0.0, 0.0))[1])),
        "lemmas.verify_self_s": ("s", list(verify_l), self_s("lemmas.verify")),
        "lemmas.green_self_s": ("s", [C + "lemmas.green_boundary_min"], self_s("lemmas.green")),
        "lemmas.margin_failures": ("count", [report], count("lemmas.margin_failures")),
    }


LAYER_METRICS = _metric_table()


def layer_metrics(tracer, passes):
    """Every per-layer metric, per traced pass; null when a target is missing."""
    stats = tracer.span_stats()
    out = {}
    for name, (unit, needs, fn) in LAYER_METRICS.items():
        if any(key in tracer.missing for key in needs):
            out[name] = {"value": None, "unit": unit}
            continue
        value = fn(tracer.counts, stats)
        if unit != "1/s":
            value = value / passes
        out[name] = {"value": value, "unit": unit}
    return out
