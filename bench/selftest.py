"""Self-tests for the benchmark in this directory.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's own suite; they run in
about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import curvelab as cl  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Ops small enough for a tiny run that still reaches every layer the workload
# is predicted to use.
TINY = {
    "table": ["squareexp.json@r=2"],
    "locus-bound": ["product2.json", "locus00.json"],   # locus00 omits K
    "lemmas": None,                                     # first op only
}

PREDICTED_NONZERO = {
    "table": [
        "curves.sd_calls", "curves.sd_points", "curves.sd_self_s", "curves.sd_points_per_s",
        "curves.u_calls", "curves.u_points", "curves.u_self_s",
        "polynomials.construct_calls", "polynomials.eval_calls",
        "quadrature.trap_calls", "quadrature.trap_points", "quadrature.trap_self_s",
        "quadrature.gl_calls", "quadrature.gl_evals", "quadrature.gl_self_s",
        "characteristic.rows", "characteristic.area_self_s", "characteristic.jensen_self_s",
        "characteristic.count_self_s", "specfile.parse_s", "trace.overhead",
    ],
    "locus-bound": [
        "curves.log_modulus_calls", "curves.estimate_growth_self_s",
        "polynomials.scalar_eval_calls", "characteristic.kink_calls",
        "characteristic.kink_self_s", "locus.trace_calls", "locus.branches",
        "locus.trace_points", "locus.trace_self_s", "locus.trace_points_per_s",
        "locus.empty_errors", "pipeline.verify_calls", "pipeline.verify_self_s",
        "pipeline.harvest_self_s", "pipeline.tie_points_harvested", "pipeline.prop1_points",
        "pipeline.prop1_self_s", "pipeline.prop2_self_s", "specfile.parse_s", "trace.overhead",
    ],
    "lemmas": [
        "polynomials.construct_calls", "lemmas.instances", "lemmas.family_self_s",
        "lemmas.instances_per_s", "lemmas.verify_self_s", "lemmas.green_self_s",
        "trace.overhead",
    ],
}


def _select(workload):
    labels = TINY[workload]
    if labels is None:
        return lambda ops: ops[:1]
    return lambda ops: [op for op in ops if op.label in labels]


@pytest.fixture(scope="module")
def tiny_runs():
    return {name: run.execute(name, 5, 1e-3, 1, 0.0, select=_select(name))
            for name in workloads.WORKLOADS}


def test_benchmark_json_names_the_metrics_the_run_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = set(tracing.LAYER_METRICS) | {"specfile.parse_s", "trace.overhead"}
    assert {m["name"] for m in SPEC["per_layer"]} == layer_names
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["table", "locus-bound"])
def test_generator_is_byte_identical_for_a_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first, again, other = make(7).specs, make(7).specs, make(8).specs
    for directory, specs in ((tmp_path / "a", first), (tmp_path / "b", again)):
        workloads.write_specs(specs, directory)
    for file_name in first:
        assert (tmp_path / "a" / file_name).read_bytes() == (tmp_path / "b" / file_name).read_bytes()
    assert [workloads.spec_bytes(s) for s in first.values()] != \
        [workloads.spec_bytes(s) for s in other.values()]
    curves = workloads.load_curves(first, tmp_path / "a")      # every spec parses
    assert len(curves) == len(first) + len(workloads.fixture_names())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(name, tiny_runs):
    record, result = tiny_runs[name]
    assert result["correct"] and not record["nondeterministic_ops"]
    assert set(record["end_to_end"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in record["end_to_end"].values())
    assert record["peak_rss_mb"] > 0 and 0 <= record["fail_frac"] <= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(m["value"] is not None for m in metrics.values())
    for metric in PREDICTED_NONZERO[name]:
        assert metrics[metric]["value"] > 0, metric
    if name == "lemmas":
        for metric, m in metrics.items():
            if metric.startswith(("curves.", "quadrature.")):
                assert m["value"] == 0, metric


def test_traced_and_untraced_outputs_are_identical(tiny_runs):
    # execute() marks an op nondeterministic when any two of its passes, traced
    # or not, give different output fingerprints; check it sees both kinds.
    for name, (record, result) in tiny_runs.items():
        assert record["passes"] == {"untraced": 1, "traced": 1}
        assert record["nondeterministic_ops"] == [] and result["correct"], name
    assert not hasattr(cl.characteristic.periodic_trapezoid, "__wrapped__")
    assert not hasattr(cl.HolomorphicCurve.spherical_derivative, "__wrapped__")


def test_fingerprint_sees_a_changed_number():
    curve = cl.load_curve(ROOT / "fixtures" / "squareexp.json")
    out = {"errors": [], "table": cl.build_table(curve, [2.0], tol=1e-8)}
    before = workloads.fingerprint(out)
    out["table"].n_counting[0] = out["table"].n_counting[0] * (1 + 1e-15)
    assert workloads.fingerprint(out) != before


def test_table_check_rejects_perturbed_counting_function():
    curve = cl.load_curve(ROOT / "fixtures" / "squareexp.json")
    n_value = cl.build_table(curve, [2.0], tol=1e-8).n_counting[0]
    assert workloads.nt_failures(curve, 2.0, n_value) == []
    assert workloads.nt_failures(curve, 2.0, n_value * (1 + 1e-3)) == ["n_t_mismatch"]


def test_locus_checks_reject_perturbed_values():
    polys = cl.load_curve(ROOT / "fixtures" / "product2.json").reduced_polys()
    radii = workloads.tail_radii()
    tstar = [cl.reduced_characteristic_polys(polys, r) for r in radii]
    assert workloads.tstar_failures(polys, radii, tstar) == []
    assert workloads.tstar_failures(polys, radii, [t * (1 + 1e-3) for t in tstar]) == \
        ["tstar_mismatch"]
    r0 = cl.regularity_radius(polys)
    summary = cl.trace_branches(polys, r0, 4 * r0)
    radii = workloads.riesz_radii(r0)
    nu = [cl.riesz_of_max(polys, t, r0=r0, summary=summary) for t in radii]
    assert workloads.nu_failures(polys, r0, radii, nu) == []
    assert workloads.nu_failures(polys, r0, radii, [v * 1.02 for v in nu]) == ["nu_mismatch"]


def test_lemma_check_rejects_failures_and_a_moved_kernel_minimum():
    report = cl.harness_report(3, 20)
    assert workloads.lemma_failures(report) == []
    assert workloads.lemma_failures({**report, "green_kernel_min": 1 / 3 + 1e-8}) == \
        ["green_min_mismatch"]
    assert workloads.lemma_failures({**report, "failures": [{"kind": "harmonic"}]}) == \
        ["lemma_failures"]


def test_calibrated_latency_divides_by_the_slowdown_around_each_sample():
    # (latency, kinds, fingerprint, unexpected, slowdown) per pass, two ops
    samples = [[(2.0, [], "a", [], 1.0), (3.0, [], "a", [], 1.5), (2.4, [], "a", [], 1.2)],
               [(0.5, [], "b", [], 2.0)]]
    assert run._op_medians(samples) == [2.4, 0.5]
    assert run._op_medians(samples, 1.0) == [2.0, 0.25]
    assert run._op_medians(samples, 0.5) == pytest.approx([2.4 / 1.2 ** 0.5, 0.5 / 2 ** 0.5])


def test_reference_kernel_is_fixed_work():
    assert reference.kernel() == reference.kernel()
    assert all(t > 0 for t in reference.timed(3))


def test_op_past_its_time_limit_is_abandoned():
    op = workloads.Op("sleeper", lambda: time.sleep(5) or {"errors": []}, lambda out: [])
    out, latency = run._timed_call(op, 0.2)
    assert out.get("timeout") and latency < 2.0


def test_failure_kinds():
    disagree = RuntimeError("characteristic routes disagree at r=4.0: area=1, jensen=2")
    assert workloads.failure_kind("table", disagree) == "crosscheck"
    assert workloads.failure_kind("locus", cl.locus.LocusEmptyError("x")) == "locus:LocusEmptyError"
    assert workloads.failure_kind("verify", ZeroDivisionError()) is None


def test_missing_wrap_target_reports_null(monkeypatch):
    monkeypatch.delattr(cl.HolomorphicCurve, "spherical_derivative")
    tracer = tracing.Tracer()
    with pytest.warns(UserWarning, match="spherical_derivative"):
        with tracer.installed(tracing.TARGETS):
            pass
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["curves.sd_self_s"]["value"] is None
    assert metrics["curves.sd_points_per_s"]["value"] is None
    assert metrics["curves.u_calls"]["value"] == 0


def test_command_line_output_format():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lemmas", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    printed = {line.split()[1]: line.split()[-1] for line in lines[:-2]}
    assert printed == {**run.END_TO_END_UNITS, "wall_s": "s", "op_p50_ms": "ms",
                       "peak_rss_mb": "MB", "fail_frac": "ratio"}
    assert "run_record" in json.loads(lines[-2])
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == workloads.LEMMA_OPS and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END_UNITS


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
