"""curvelab benchmark runner.

    python3 bench/run.py --workload {table,locus-bound,lemmas} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository: the package is imported from its
`src/` directory. The run builds the workload's seeded inputs, sets up several
times (writing the spec files, parsing them, one untimed warm-up op), then
runs passes over the workload's ops, one op at a time, until the next pass
would end after S seconds; the first pass always completes. Every op's
outputs are checked after its timer stops. A fixed reference kernel
(reference.py) is timed between ops; the gated op timings are divided by the
slowdown it shows around each op (raised to the workload's sensitivity), so
that drift in the shared machine's speed does not read as a change in
curvelab.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
untraced and traced passes alternate and the last line reports the per-layer
metrics of the traced passes plus the tracing overhead. The line before it
is the run record: machine, versions, op counts and failures by kind.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

# Modules that import numpy (curvelab, workloads, tracing) are imported inside
# functions, after load_package() has pinned the BLAS thread variables.
ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
# Reference-kernel calls timed in each gap between ops and set-ups
# (reference.py).
REF_REPEATS = 2
# Ops still running this long after the set-up began are cut short, so that a
# run ends well inside the 180 s it is allowed even when many ops are slow.
RUN_DEADLINE_S = 145.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The gated end-to-end metrics (BENCHMARK.json): the set-up time and the op
# timings rescaled to the reference speed. The raw wall_s and op_p50_ms,
# peak_rss_mb and fail_frac are printed and recorded but not gated, see
# README.md.
END_TO_END_UNITS = {"setup_s": "s", "wall_cal_s": "s", "op_gmean_cal_ms": "ms"}


class MissingSource(RuntimeError):
    """The directory holding the benchmark has no curvelab sources."""


class OpTimeout(BaseException):
    """An op ran past its workload's time limit. It derives from BaseException
    so that no `except Exception` inside the op can swallow it."""


def _raise_timeout(signum, frame):
    raise OpTimeout("op exceeded its time limit")


def _timed_call(op, limit_s):
    """(outputs, latency) of one op; past `limit_s` the op is abandoned and
    its outputs hold only the timeout."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    start = time.perf_counter()
    try:
        out = op.call()
    except OpTimeout as exc:
        out = {"errors": [("op", exc)], "timeout": True}
    finally:
        latency = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return out, latency


def load_package():
    """Import curvelab from the checkout's src/ and return the import time."""
    src = ROOT / "src"
    if not (src / "curvelab" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise MissingSource(f"no curvelab sources or fixtures under {ROOT}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import curvelab
    elapsed = time.perf_counter() - start
    if Path(curvelab.__file__).resolve().parent != (src / "curvelab").resolve():
        raise MissingSource(f"curvelab imported from {curvelab.__file__}, not {src}")
    return elapsed


def _slowdown(kernel_times):
    import reference

    return statistics.median(kernel_times) / reference.NOMINAL_S


def _setup(make_workload, seed, workdir):
    import workloads

    start = time.perf_counter()
    wl = make_workload(seed)
    workloads.write_specs(wl.specs, workdir)
    parse_start = time.perf_counter()
    # a workload without generated specs (lemmas) takes no curves at all
    curves = workloads.load_curves(wl.specs, workdir) if wl.specs else {}
    parse_s = time.perf_counter() - parse_start
    warm = wl.warmup(curves)
    warm.call()
    elapsed = time.perf_counter() - start
    digest = {name: workloads.spec_bytes(spec) for name, spec in wl.specs.items()}
    return wl, curves, elapsed, parse_s, digest


def _run_pass(ops, limit_s, sensitivity, deadline, samples, refs, tracer=None):
    """One op at a time; the timer covers only the op's call.

    The reference kernel is timed in the gap before the first op and after
    every op, before its check. An op's slowdown is the median kernel time of
    the gaps on either side of it over the nominal time, so a burst of load
    that slows the op is seen by the kernel too. The op's time limit is
    `limit_s` at nominal speed, stretched by the slowdown in the gap before
    it, so that an op that runs out of time counts about `limit_s` once
    rescaled. Latencies are rescaled by the slowdown raised to
    `sensitivity`, the limits likewise.
    Each sample is (latency, failure kinds, fingerprint, unexpected errors,
    slowdown); every kernel time is appended to `refs`."""
    import reference
    import workloads

    before = reference.timed(REF_REPEATS)
    refs.extend(before)
    for idx, op in enumerate(ops):
        stretch = _slowdown(before) ** sensitivity
        limit = min(limit_s * stretch, max(deadline - time.perf_counter(), 1e-3))
        if tracer is None:
            out, latency = _timed_call(op, limit)
        else:
            with tracer.recording(idx):
                out, latency = _timed_call(op, limit)
        after = reference.timed(REF_REPEATS)
        refs.extend(after)
        slowdown = _slowdown(before + after)
        before = after
        if out.get("timeout"):
            samples[idx].append((latency, ["timeout"], None, [], slowdown))
            continue
        unexpected = [f"{stage}:{type(exc).__name__}: {exc}"
                      for stage, exc in workloads.unexpected_errors(out)]
        try:
            kinds = op.check(out)
        except Exception as exc:  # a check that cannot run is reported, not fatal
            kinds = [f"check:unexpected:{type(exc).__name__}"]
            unexpected.append(f"check:{type(exc).__name__}: {exc}")
        if tracer is not None:
            tracer.counts.update(f"check.{kind}" for kind in kinds)
        samples[idx].append((latency, kinds, workloads.fingerprint(out), unexpected, slowdown))


def _op_medians(samples, sensitivity=0.0):
    """Each op's median latency over its passes, divided by the slowdown
    measured around it raised to `sensitivity` (0 gives the raw latency)."""
    return [statistics.median(s[0] / s[4] ** sensitivity for s in op_samples)
            for op_samples in samples]


def execute(workload, seed, seconds, trace, import_s, select=None):
    """Run one workload; returns (run record, result line dict).

    `select` maps the op list to the ops to run (used by the self-tests)."""
    import numpy as np
    import reference
    import scipy
    import tracing
    import workloads

    deadline = time.perf_counter() + RUN_DEADLINE_S
    make_workload = workloads.WORKLOADS[workload]
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}"
    # The set-ups are rescaled like the ops, but in full (sensitivity 1): each
    # by the kernel times on either side of it, the import by the kernel times
    # right after it.
    gaps = [reference.timed(REF_REPEATS)]
    setups = []
    for _ in range(SETUPS):
        setups.append(_setup(make_workload, seed, workdir))
        gaps.append(reference.timed(REF_REPEATS))
    setup_slowdowns = [_slowdown(a + b) for a, b in zip(gaps, gaps[1:])]
    wl, curves = setups[-1][0], setups[-1][1]
    reproducible = all(s[4] == setups[0][4] for s in setups)
    ops = wl.make_ops(curves)
    if select is not None:
        ops = select(ops)

    untraced = [[] for _ in ops]
    traced = [[] for _ in ops]
    tracer = tracing.Tracer()
    passes = {"untraced": 0, "traced": 0}
    refs = []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        _run_pass(ops, wl.time_limit_s, wl.sensitivity, deadline, untraced, refs)
        passes["untraced"] += 1
        if trace:
            with tracer.installed(tracing.TARGETS):
                _run_pass(ops, wl.time_limit_s, wl.sensitivity, deadline, traced, refs,
                          tracer)
            passes["traced"] += 1
        now = time.perf_counter()
        if now - start + (now - lap) > seconds:
            break

    # Every pass re-runs the same inputs, so failures are counted over the
    # distinct ops: a faster program runs more passes but fails no more ops.
    all_samples = [u + t for u, t in zip(untraced, traced)]
    attempted = len(ops)
    failed_ops = [(op.label, sorted({k for s in op_samples for k in s[1]}))
                  for op, op_samples in zip(ops, all_samples)]
    failed_ops = [(label, op_kinds) for label, op_kinds in failed_ops if op_kinds]
    kinds = Counter(kind for _, op_kinds in failed_ops for kind in op_kinds)
    unexpected = sorted({u for op_samples in all_samples for s in op_samples for u in s[3]})
    nondeterministic = [op.label for op, op_samples in zip(ops, all_samples)
                        if len({s[2] for s in op_samples if s[2] is not None}) > 1]
    correct = reproducible and not unexpected and not nondeterministic

    setup_raw_s = import_s + statistics.median(s[2] for s in setups)
    setup_s = import_s / _slowdown(gaps[0]) + statistics.median(
        s[2] / slow for s, slow in zip(setups, setup_slowdowns))
    op_medians = _op_medians(untraced)
    op_cal = _op_medians(untraced, wl.sensitivity)
    wall_s, wall_cal_s = sum(op_medians), sum(op_cal)
    op_p50_ms = 1e3 * statistics.median(op_medians)
    # The geometric mean weighs every op alike in relative terms; the median
    # of a few tens of ops whose costs span two decades jumps with the seed.
    op_gmean_cal_ms = 1e3 * math.exp(statistics.fmean(math.log(t) for t in op_cal))
    end_to_end = {"setup_s": setup_s, "wall_cal_s": wall_cal_s,
                  "op_gmean_cal_ms": op_gmean_cal_ms}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "ops_per_pass": len(ops), "passes": passes, "attempted": attempted,
        "failed": len(failed_ops), "fail_frac": len(failed_ops) / attempted,
        "failures_by_kind": dict(sorted(kinds.items())),
        "failed_ops": [f"{label}: {','.join(k)}" for label, k in failed_ops],
        "unexpected_errors": unexpected, "nondeterministic_ops": nondeterministic,
        "inputs_reproducible": reproducible,
        "end_to_end": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, value in end_to_end.items()},
        "peak_rss_mb": peak_rss_mb, "wall_s": wall_s, "op_p50_ms": op_p50_ms,
        "reference": {"median_s": statistics.median(refs), "nominal_s": reference.NOMINAL_S,
                      "samples": len(refs), "sensitivity": wl.sensitivity},
        "op_median_calibrated_s": dict(zip((op.label for op in ops), op_cal)),
        "op_p50_samples": len(ops),
        "op_median_latency_s": dict(zip((op.label for op in ops), op_medians)),
        "setup": {"raw_s": setup_raw_s, "import_s": import_s,
                  "setups_s": [s[2] for s in setups], "slowdowns": setup_slowdowns,
                  "process_start_to_first_op_s": start - _T0},
        "machine": machine_info(np, scipy),
        "git_commit": git_commit(), "src_lines": src_lines(),
    }
    if trace:
        layers = tracing.layer_metrics(tracer, passes["traced"])
        layers["specfile.parse_s"] = {"value": statistics.median(s[3] for s in setups),
                                      "unit": "s"}
        layers["trace.overhead"] = {
            "value": sum(_op_medians(traced, wl.sensitivity)) / wall_cal_s, "unit": "ratio"}
        record["trace_targets_missing"] = sorted(tracer.missing)
        record["spans_file"] = str(write_spans(tracer, workdir).relative_to(ROOT))
        metrics = layers
    else:
        metrics = record["end_to_end"]
    result = {"correct": bool(correct), "attempted": attempted, "failed": len(failed_ops),
              "metrics": metrics}
    return record, result


def write_spans(tracer, workdir):
    path = workdir / "spans.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
    return path


def machine_info(np, scipy):
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "curvelab").glob("*.py")))


def _format(value):
    return "null" if value is None else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("table", "locus-bound", "lemmas"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_s = load_package()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    record, result = execute(args.workload, args.seed, args.seconds, args.trace, import_s)
    extra = {"wall_s": {"value": record["wall_s"], "unit": "s"},
             "op_p50_ms": {"value": record["op_p50_ms"], "unit": "ms"},
             "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
             "fail_frac": {"value": record["fail_frac"], "unit": "ratio"}}
    for name, m in {**result["metrics"], **extra}.items():
        print(f"{args.workload:12s} {name:34s} {_format(m['value']):>12s} {m['unit']}")
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
