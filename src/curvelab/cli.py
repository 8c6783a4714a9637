"""Command-line front end.

Commands: characteristic, locus, lemmas, verify-bound, analyze. Results are
written as CSV/JSON artifacts into the output directory; exit status is 0 iff
all verdicts in scope are true. Output is deterministic for a fixed config and
seed, apart from the 'generated_at' timestamp field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .characteristic import DEFAULT_TOL, build_table
from .errors import CurvelabError
from .lemmas import harness_report
from .locus import branch_asymptotics, regularity_radius, trace_branches
from .pipeline import DEFAULT_EPSILON, verify_theorem
from .specfile import load_curve

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
# an error exits with the exit_code of its CurvelabError class (2 or 3)


def _write_json(path: Path, payload: dict):
    """payload and a timestamp as strict JSON: a non-finite number is written as null."""
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _radii(args):
    return list(np.geomspace(args.rmin, args.rmax, args.grid))


def _cmd_characteristic(args, out: Path):
    curve = load_curve(args.input)
    try:
        table = build_table(curve, _radii(args), tol=args.tol)
    except CurvelabError:
        raise
    except RuntimeError as exc:    # the two routes disagree: a false verdict
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT_FALSE
    (out / "characteristic.csv").write_text(table.to_csv())
    _write_json(out / "characteristic.json", json.loads(table.to_json()))
    print(table.to_csv(), end="")
    return EXIT_OK


def _cmd_locus(args, out: Path):
    """Trace the locus to max(--rmax, 4*r0) and write it."""
    curve = load_curve(args.input)
    polys = curve.reduced_polys()
    r0 = regularity_radius(polys)
    summary = trace_branches(polys, r0, max(args.rmax, 4 * r0))
    if not summary.branches:
        _write_json(out / "locus.json", {"r0": None, "b": None, "c0": None, "branches": []})
        print("empty locus: no two exponents differ in real part by more than a constant")
        return EXIT_OK
    # fit every branch before writing anything, so a failed fit leaves no files
    fits = [branch_asymptotics(br) for br in summary.branches]
    branch_info = []
    for idx, (br, (b_k, c_k)) in enumerate(zip(summary.branches, fits)):
        rows = ["re,im,arclen,density"]
        arc = np.concatenate([[0.0], br.arclens])
        for p, a, d in zip(br.points.tolist(), arc.tolist(), br.densities.tolist()):
            rows.append(f"{p.real!r},{p.imag!r},{a!r},{d!r}")
        (out / f"branch_{idx:03d}.csv").write_text("\n".join(rows) + "\n")
        branch_info.append({
            "pair": list(br.pair), "b_k": b_k, "c_k": c_k, "active": br.active,
        })
    _write_json(out / "locus.json", {
        "r0": summary.r0, "b": summary.b, "c0": summary.c0,
        "branches": branch_info,
    })
    print(f"r0={summary.r0:.6g} branches={len(summary.branches)} "
          f"b={summary.b:.6g} c0={summary.c0:.6g}")
    return EXIT_OK


def _cmd_lemmas(args, out: Path):
    report = harness_report(args.seed, args.count)
    _write_json(out / "lemmas.json", report)
    print(f"harmonic min margin      {report['harmonic_min_margin']:.3e}")
    print(f"superharmonic min margin {report['superharmonic_min_margin']:.3e}")
    print(f"green kernel minimum     {report['green_kernel_min']:.12f}")
    print(f"failures                 {len(report['failures'])}")
    return EXIT_OK if not report["failures"] else EXIT_VERDICT_FALSE


def _cmd_verify_bound(args, out: Path):
    curve = load_curve(args.input)
    report = verify_theorem(curve, _radii(args), epsilon=args.epsilon, tol=args.tol)
    _write_json(out / "bound_report.json", json.loads(report.to_json()))
    print(f"sigma={report.sigma} K={report.K:.6g} "
          f"C(n,sigma)={report.theorem_constant:.6g}")
    if report.K_radii is not None:
        print(f"K read on r = {', '.join(f'{r:.6g}' for r in report.K_radii)}")
    for name, verdict in report.verdicts.items():
        print(f"  {name:8s} {'PASS' if verdict else 'FAIL'}")
    return EXIT_OK if report.all_true else EXIT_VERDICT_FALSE


def _cmd_analyze(args, out: Path):
    return max(cmd(args, out) for cmd in (_cmd_characteristic, _cmd_locus, _cmd_verify_bound))


def _checked(convert, test, requirement):
    """An argparse type that converts a flag value and rejects it unless
    test(value) holds, so bad values exit 2 at parse time."""
    def parse(text):
        try:
            value = convert(text)
            ok = test(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
        return value
    return parse


_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a positive number")
_FLAGS = {
    "--input": dict(required=True, help="curve spec JSON file"),
    "--out": dict(default=".", help="output directory"),
    "--rmin": dict(type=_POSITIVE, default=1.0),
    "--rmax": dict(type=_POSITIVE, default=20.0),
    "--grid": dict(type=_checked(int, lambda v: v >= 8, "an integer >= 8"), default=16),
    "--tol": dict(type=_POSITIVE, default=DEFAULT_TOL),
    "--epsilon": dict(type=_POSITIVE, default=DEFAULT_EPSILON,
                      help="slack in the distance constant (2+epsilon)^{sigma+1}"),
    "--seed": dict(type=_checked(int, lambda v: v >= 0, "an integer >= 0"), default=0),
    "--count": dict(type=_checked(int, lambda v: v >= 1, "an integer >= 1"), default=1000),
}
_TABLE_FLAGS = ("--input", "--out", "--rmin", "--rmax", "--grid", "--tol")

# command -> (handler, the flags it reads)
_COMMANDS = {
    "characteristic": (_cmd_characteristic, _TABLE_FLAGS),
    "locus": (_cmd_locus, ("--input", "--out", "--rmax")),
    "lemmas": (_cmd_lemmas, ("--out", "--seed", "--count")),
    "verify-bound": (_cmd_verify_bound, _TABLE_FLAGS + ("--epsilon",)),
    "analyze": (_cmd_analyze, _TABLE_FLAGS + ("--epsilon",)),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvelab",
        description="Growth analysis of holomorphic curves omitting coordinate hyperplanes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if "rmin" in args and args.rmin >= args.rmax:
        parser.error("--rmin must be below --rmax")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    handler, _ = _COMMANDS[args.command]
    try:
        return handler(args, out)
    except CurvelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
