import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvelab import cli
from curvelab.cli import main
from curvelab.specfile import load_curve
from curvelab.errors import QuadratureBudgetError, SpecFileError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"

_SPEC = {"n": 1, "sigma": 0.0,
         "components": [{"type": "exppoly", "P": [[0, 0], [1, 0]]}, {"type": "exppoly", "P": []}]}
# spec -> a part of the one-line diagnostic it must exit 2 with
MALFORMED = {
    "vanishing-component": (dict(_SPEC, components=[
        {"type": "exppoly", "P": [[0, 0], [1, 0]]},
        {"type": "poly", "Q": [[1, 0], [1, 0]]}]), "component 1"),
    "sigma-string": (dict(_SPEC, sigma="x"), "'sigma'"),
    "sigma-infinity": (dict(_SPEC, sigma=math.inf), "'sigma'"),
    "sigma-nan": (dict(_SPEC, sigma=math.nan), "'sigma'"),
    "sigma-true": (dict(_SPEC, sigma=True), "'sigma'"),
    "sigma-null": (dict(_SPEC, sigma=None), "'sigma'"),
    "huge-coefficient": (dict(_SPEC, components=[
        {"type": "exppoly", "P": [[0, 0], [10 ** 400, 0]]},
        {"type": "exppoly", "P": []}]), "component 0"),
    "n-true": (dict(_SPEC, n=True), "'n'"),
    "K-infinity": (dict(_SPEC, K=math.inf), "'K'"),
    "K-nan": (dict(_SPEC, K=math.nan), "'K'"),
    "nan-coefficient": (dict(_SPEC, components=[
        {"type": "exppoly", "P": [[0, 0], [math.nan, 0]]},
        {"type": "exppoly", "P": []}]), "component 0"),
    "top-level-number": (5, "top level"),
    "top-level-null": (None, "top level"),
}


class TestSpecFiles:
    def test_load_gallery(self):
        curve = load_curve(FIXTURES / "exp.json")
        assert curve.n == 1
        assert curve.K == 0.5
        curve = load_curve(FIXTURES / "product2.json")
        assert curve.n == 2

    def test_vanishing_component_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 1, "sigma": 0.0,
            "components": [
                {"type": "poly", "Q": [[0, 0], [1, 0]]},
                {"type": "poly", "Q": [[1, 0]]},
            ]}))
        with pytest.raises(SpecFileError, match="component 1 must be nonvanishing"):
            load_curve(bad)

    def test_parse_error_has_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(SpecFileError, match=r":2:"):
            load_curve(bad)


class TestCommands:
    def test_characteristic_csv(self, tmp_path, capsys):
        status = main(["characteristic", "--input", str(FIXTURES / "line.json"),
                       "--out", str(tmp_path), "--rmin", "1", "--rmax", "4",
                       "--grid", "8"])
        assert status == 0
        lines = (tmp_path / "characteristic.csv").read_text().splitlines()
        assert lines[0] == "r,T_area,T_jensen,n_t"
        assert len(lines) == 9

    def test_verify_bound_exit_zero(self, tmp_path, capsys):
        status = main(["verify-bound", "--input", str(FIXTURES / "exp.json"),
                       "--out", str(tmp_path), "--rmin", "1", "--rmax", "15",
                       "--grid", "10"])
        assert status == 0
        report = json.loads((tmp_path / "bound_report.json").read_text())
        assert all(report["verdicts"].values())

    def test_bound_report_is_strict_json(self, tmp_path, capsys):
        # n = 1: the empty locus gives prop3 b = -inf, which is written as null
        main(["verify-bound", "--input", str(FIXTURES / "line.json"), "--out", str(tmp_path)])

        def reject(constant):
            raise ValueError(f"{constant} in bound_report.json")
        report = json.loads((tmp_path / "bound_report.json").read_text(), parse_constant=reject)
        assert report["prop3"]["b"] is None

    def test_locus_outputs(self, tmp_path, capsys):
        status = main(["locus", "--input", str(FIXTURES / "product2.json"),
                       "--out", str(tmp_path), "--rmax", "30"])
        assert status == 0
        summary = json.loads((tmp_path / "locus.json").read_text())
        assert summary["r0"] == pytest.approx(2.0)
        assert len(summary["branches"]) == 2
        branch_csv = (tmp_path / "branch_000.csv").read_text().splitlines()
        assert branch_csv[0] == "re,im,arclen,density"
        # plain float literals, not numpy scalar reprs such as np.float64(2.0)
        rows = [[float(x) for x in line.split(",")] for line in branch_csv[1:]]
        assert rows[0][:3] == pytest.approx([0.0, 2.0, 0.0], abs=1e-12)

    def test_lemmas_exit_zero(self, tmp_path, capsys):
        status = main(["lemmas", "--seed", "7", "--count", "50",
                       "--out", str(tmp_path)])
        assert status == 0
        report = json.loads((tmp_path / "lemmas.json").read_text())
        assert report["failures"] == []

    @pytest.mark.parametrize("spec, message", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_malformed_spec_exit_two(self, spec, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))   # NaN and Infinity as Python's json writes them
        status = main(["characteristic", "--input", str(bad), "--out", str(tmp_path)])
        assert status == 2
        assert message in capsys.readouterr().err

    def test_deterministic_outputs(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["lemmas", "--seed", "3", "--count", "25",
                         "--out", str(out)]) == 0
        r1 = json.loads((out1 / "lemmas.json").read_text())
        r2 = json.loads((out2 / "lemmas.json").read_text())
        r1.pop("generated_at")
        r2.pop("generated_at")
        assert r1 == r2

    @pytest.mark.parametrize("command, traces", [("verify-bound", 0), ("analyze", 1)])
    def test_locus_trace_count(self, command, traces, tmp_path, monkeypatch, capsys):
        # verify-bound reads prop3 off the locus's far field without a trace;
        # analyze traces once, for locus.json
        import curvelab.locus
        original, calls = curvelab.locus.trace_branches, []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "curvelab" and hasattr(module, "trace_branches"):
                monkeypatch.setattr(module, "trace_branches", counted)
        assert main([command, "--input", str(FIXTURES / "product2.json"),
                     "--out", str(tmp_path), "--grid", "8"]) == 0
        assert len(calls) == traces

    def test_analyze_bound_report_matches_verify_bound(self, tmp_path, capsys):
        reports = []
        for command in ("verify-bound", "analyze"):
            out = tmp_path / command
            assert main([command, "--input", str(FIXTURES / "product2.json"),
                         "--out", str(out), "--grid", "8"]) == 0
            report = json.loads((out / "bound_report.json").read_text())
            report.pop("generated_at")
            reports.append(report)
        assert reports[0] == reports[1]


MATRIX_FIXTURES = ("exp", "line", "product2", "squareexp")
ONE_COMPONENT = ("exp", "line", "squareexp")   # n = 1: empty equal-value locus


def _run(argv, capsys):
    """main's exit status and stderr; an argparse error exits through
    SystemExit, and any other exception escapes and fails the test."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return status, err


class TestCommandMatrix:
    @pytest.mark.parametrize("name", MATRIX_FIXTURES)
    @pytest.mark.parametrize("command", ["characteristic", "locus", "verify-bound", "analyze"])
    def test_every_command_on_every_fixture(self, command, name, tmp_path, capsys):
        small = ["--rmax", "4"] if command == "locus" else ["--grid", "8", "--rmax", "4"]
        status, _ = _run([command, "--input", str(FIXTURES / f"{name}.json"),
                          "--out", str(tmp_path)] + small, capsys)
        assert status == 0
        if command in ("locus", "analyze") and name in ONE_COMPONENT:
            summary = json.loads((tmp_path / "locus.json").read_text())
            assert summary["branches"] == []
            assert summary["r0"] is None
        if command == "analyze":
            assert (tmp_path / "bound_report.json").exists()

    @pytest.mark.parametrize("command", ["verify-bound", "analyze"])
    def test_K_omitted_grid_inside_unit_disk(self, command, tmp_path, capsys):
        # K is estimated on circles from --rmin when the whole grid lies in |z| <= 1
        spec = json.loads((FIXTURES / "product2.json").read_text())
        del spec["K"]
        path = tmp_path / "product2_no_K.json"
        path.write_text(json.dumps(spec))
        status, _ = _run([command, "--input", str(path), "--rmin", "0.1", "--rmax", "1",
                          "--out", str(tmp_path / "out")], capsys)
        assert status in (0, 1)

    def test_lemmas(self, tmp_path, capsys):
        status, _ = _run(["lemmas", "--count", "5", "--out", str(tmp_path)], capsys)
        assert status == 0

    @pytest.mark.parametrize("args", [
        ["lemmas", "--count", "0"],
        ["lemmas", "--epsilon", "0.1"],
        ["verify-bound", "--input", "exp.json", "--epsilon", "-1"],
        ["characteristic", "--input", "exp.json", "--tol", "0"],
        ["characteristic", "--input", "exp.json", "--grid", "7"],
        ["characteristic", "--input", "exp.json", "--rmin", "0"],
        ["characteristic", "--input", "exp.json", "--rmax", "nan"],
        ["characteristic", "--input", "exp.json", "--rmin", "5", "--rmax", "4"],
        ["locus", "--input", "exp.json", "--rmax", "-1"],
        ["locus", "--input", "exp.json", "--grid", "8"],
        ["lemmas", "--seed", "-1"],
    ])
    def test_bad_arguments_exit_two(self, args, tmp_path, capsys):
        args = [str(FIXTURES / a) if a.endswith(".json") else a for a in args]
        status, err = _run(args + ["--out", str(tmp_path)], capsys)
        assert status == 2
        assert "error:" in err

    def test_numerical_failure_exit_three(self, tmp_path, capsys):
        # a generated n = 2, sigma = 0 curve whose branch (0, 1) is still short
        # of its asymptotics at |z| = 40, so branch_asymptotics raises
        spec = tmp_path / "locus03.json"
        spec.write_text(json.dumps({
            "n": 2, "sigma": 0.0, "K": 1.0,
            "components": [
                {"type": "poly", "Q": [[0.07002108764992052, -0.09466213037971212],
                                       [-0.3993359683864637, 1.1195901512990776],
                                       [-0.16791452217368838, -0.8278926463945785]]},
                {"type": "exppoly", "P": [[-0.5049689099079581, 0.21864566543941039],
                                          [1.1452306976137185, -0.18365671708445427],
                                          [-0.032566088357298094, 0.2261409074445647]]},
                {"type": "exppoly", "P": []},
            ]}))
        out = tmp_path / "out"
        status, err = _run(["locus", "--input", str(spec), "--rmax", "40",
                            "--out", str(out)], capsys)
        assert status == 3
        assert err.startswith("error:") and err.count("\n") == 1
        # no partial output: neither branch files nor a summary
        assert not list(out.glob("branch_*.csv"))
        assert not (out / "locus.json").exists()

    def test_route_disagreement_exit_one(self, tmp_path, capsys):
        # Re P = 1e200 Re z: the area route reads ||f'|| = 0 on every circle
        # while the Jensen route reads u ~ 1e200, so build_table's
        # cross-check fails at the first radius
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps(dict(_SPEC, components=[
            {"type": "exppoly", "P": [[0, 0], [1e200, 0]]}, {"type": "exppoly", "P": []}])))
        status, err = _run(["characteristic", "--input", str(spec), "--rmax", "1e4",
                            "--out", str(tmp_path / "out")], capsys)
        assert status == 1
        assert err.startswith("error: characteristic routes disagree") and err.count("\n") == 1
        assert not (tmp_path / "out" / "characteristic.csv").exists()

    def test_budget_error_in_table_exits_three(self, tmp_path, capsys, monkeypatch):
        # QuadratureBudgetError is a RuntimeError too, and keeps its exit code
        def exhausted(*args, **kwargs):
            raise QuadratureBudgetError("budget exhausted", 0.0, 1.0)

        monkeypatch.setattr(cli, "build_table", exhausted)
        status, err = _run(["characteristic", "--input", str(FIXTURES / "line.json"),
                            "--out", str(tmp_path)], capsys)
        assert status == 3
        assert err.startswith("error: budget exhausted") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["characteristic", "locus", "verify-bound", "analyze"])
    @pytest.mark.parametrize("missing", ["missing.json", "."])
    def test_unreadable_input_exit_two(self, command, missing, tmp_path, capsys):
        status, err = _run([command, "--input", str(tmp_path / missing),
                            "--out", str(tmp_path)], capsys)
        assert status == 2
        assert err.startswith("error:") and err.count("\n") == 1


def test_import_loads_no_scipy():
    # no module of the package imports scipy: not the import every command
    # pays, not the lemma harness and not estimate_growth, which verify-bound
    # runs on a curve that omits K
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    growth = ("curvelab.estimate_growth(curvelab.load_curve("
              f"{str(FIXTURES / 'product2.json')!r}).with_K(None), 1.0, 20.0); ")
    for run in ("", "curvelab.harness_report(1, 5); ", growth):
        code = f"import sys, curvelab; {run}{report}"
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]", run
