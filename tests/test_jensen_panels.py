"""The Jensen route's panel phase: circles that the periodic trapezoid has not
settled by JENSEN_HANDOVER angles finish on tie-guarded Gauss-Kronrod panels
graded from their switch angles."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import curvelab.characteristic as characteristic
import curvelab.quadrature as quadrature
from curvelab import HolomorphicCurve, build_table, characteristic_jensen, load_curve, parse_curve, verify_theorem
from curvelab.characteristic import DEFAULT_TOL, JENSEN_HANDOVER, _tie_guarded_u, switch_points
from curvelab.cli import main
from curvelab.errors import QuadratureBudgetError
from curvelab.quadrature import _trapezoid_levels, periodic_trapezoid

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
VERIFY_GRID = np.geomspace(1.0, 20.0, 16)    # verify-bound's default radii


def _exppoly(*coeffs):
    return {"type": "exppoly", "P": [list(c) for c in coeffs]}


# Three generated curves whose circles have many sharp ties (sigma >= 0.5)
# n = 4, sigma = 1, f_0 = Q e^P with two zeros
N4_SIGMA1 = {"n": 4, "sigma": 1.0, "K": 1.0, "components": [
    {"type": "polyexp",
     "Q": [[0.27031545760320014, -0.16625367180121303], [0.5551773005610199, -0.36912040859365397],
           [0.4832864794942235, 0.36595782264359544]],
     "P": [[-0.4729952741626499, 0.6828837213662482], [0.2842336079662174, 0.45177767864949275],
           [0.452291287571151, -0.9102839229339275], [-0.4062814306773333, 0.39777313942856063],
           [1.0969442554826505, 0.4232324426202961]]},
    _exppoly((-0.10579840145660027, -0.13436626963693826), (-0.3076431298097553, -0.37482939233985296),
             (0.44918359221091486, -0.07902198605241915), (-0.26777659089214206, 0.30509788680892697),
             (1.043187555362074, -0.434067398411178)),
    _exppoly((0.05520793586593498, 0.16442390469472556), (-0.4223962819893154, -0.3291817053808925),
             (0.589735875792142, 0.3963758633831497), (0.7073552372115955, 0.1862800495542599),
             (-0.07681484911171185, -0.5356316657106808)),
    _exppoly((-0.3910168421195401, 0.0007439289795726919), (0.32125527876651805, -0.24401830324573817),
             (0.3899525331610401, 0.35855829069753525), (-0.5341091356083364, 0.483477533132297),
             (-0.9727757314747004, 0.43666501393342694)),
    _exppoly()]}
# n = 6, sigma = 0.5
N6_SIGMA05 = {"n": 6, "sigma": 0.5, "components": [
    _exppoly((0.11670868281657731, 0.018399984574970243), (0.19137672516644372, 1.0588306088525417),
             (0.510933757132328, 0.7664598176889847), (-0.2527569648711356, 0.4998819748594469)),
    _exppoly((0.12173852264673803, 1.080468897357775), (-0.4602090162461501, 0.3711024103853408),
             (0.9006310210569768, -0.243323556077557), (0.036716591158792604, -1.3095211164629497)),
    _exppoly((-0.6563534732259328, -0.1765204466749108), (-0.12425882592591479, -0.28197182062969584),
             (0.32234965754067063, 0.40609531079648986), (-0.5427359135485572, -0.5186577763541116)),
    _exppoly((-0.09545588254138881, -0.24004465254711257), (-0.19027605799639197, -0.6639925498805577),
             (-0.0423370727960898, -0.2322788601326886), (0.15416335273600484, -0.25407323008102956)),
    _exppoly((-0.1684433797093457, 0.22742977714468665), (-0.16170400693696652, -0.1829053021505518),
             (-0.7825608004377933, -0.3378469799783435), (0.1668567602373167, -0.012933524031734294)),
    _exppoly((0.27691106466487003, 0.08018849881305078), (0.07756853804529895, 0.36006182499935174),
             (-0.7164970186832078, 0.5127674408487971), (0.6958048206664499, -0.22091421570235842)),
    _exppoly()]}
# n = 3, sigma = 0.5
N3_SIGMA05 = {"n": 3, "sigma": 0.5, "K": 1.0, "components": [
    _exppoly((-0.1663693980009499, -0.3176810948459616), (0.5755104621847922, 0.4479259423855798),
             (0.04789921077733103, 0.7736996392150308), (-0.6630591864371931, 0.7825971136462093)),
    _exppoly((-0.1696508938541015, -0.021683525703504385), (0.6742403034805384, 0.10939410101049485),
             (0.2113243137963312, -0.38746225878876955), (0.021051286248386515, -1.037742464841257)),
    _exppoly((-0.25883666624223206, 0.4171297679945207), (0.880857737517271, 0.028205230624728947),
             (0.3862716409628531, 0.4005999250083885), (0.35533422370188983, -0.052896583039755425)),
    _exppoly()]}


def _component_logs(spec, z):
    """The rows log|f_k(z)| = Re P_k + log|Q_k|, each by its own Horner loop."""
    logs = []
    for comp in spec["components"]:
        g, p = (np.zeros_like(z) if "Q" in comp else np.ones_like(z)), np.zeros_like(z)
        for c in reversed(comp.get("Q", [])):
            g = g * z + complex(*c)
        for c in reversed(comp["P"]):
            p = p * z + complex(*c)
        with np.errstate(divide="ignore"):
            logs.append(p.real + np.log(np.abs(g)))
    return np.array(logs)


def _oracle(spec, r, nodes=1 << 22, chunk=1 << 18):
    """Circle integral of u = (1/2) log sum |f_k|^2 by a plain trapezoid on
    `nodes` angles, each |f_k| by its own Horner loop."""
    total = 0.0
    for start in range(0, nodes, chunk):
        logs = _component_logs(spec, r * np.exp(1j * np.arange(start, start + chunk) * (2 * math.pi / nodes)))
        top = logs.max(axis=0)
        total += np.sum(top + 0.5 * np.log(np.sum(np.exp(2.0 * (logs - top)), axis=0)))
    return total * (2 * math.pi / nodes)


def _jensen_integral(curve, r):
    return (characteristic_jensen(curve, r) + curve.u(0.0)) * 2 * math.pi


@pytest.mark.parametrize("spec, r", [(N3_SIGMA05, VERIFY_GRID[15]), (N4_SIGMA1, VERIFY_GRID[14]),
                                     (N6_SIGMA05, VERIFY_GRID[13])],
                         ids=["n3-r20", "n4-r16.38", "n6-r13.41"])
def test_unsettled_circle_meets_its_tolerance(spec, r):
    # the trapezoid's two-level test stopped 4.0e-8, 1.1e-7 and 1.1e-8
    # (relative) away from the 2^22-angle value on these circles; the panels must not
    curve = parse_curve(spec)
    assert _trapezoid_levels(curve.u, [r], DEFAULT_TOL, JENSEN_HANDOVER)[2].size == 1
    reference = _oracle(spec, r)
    assert abs(_jensen_integral(curve, r) - reference) <= DEFAULT_TOL * max(1.0, abs(reference))


def test_sharp_circles_leave_the_trapezoid_after_its_first_level(monkeypatch):
    # handed its switch points, a circle with a slope past the sharp bound reads
    # u on N_START angles before the panels; without them it runs the
    # trapezoid to JENSEN_HANDOVER angles
    curve, r = parse_curve(N3_SIGMA05), VERIFY_GRID[15]
    switches = switch_points(curve, [r])
    sharp = JENSEN_HANDOVER * math.pi / (2 * math.log(1 / DEFAULT_TOL))   # 87.3
    assert characteristic._with_slopes(curve, switches)[2].max() > sharp
    points, u = [], HolomorphicCurve.u
    monkeypatch.setattr(HolomorphicCurve, "u", lambda self, z: points.append(np.size(z)) or u(self, z))
    routed = characteristic_jensen(curve, r, switches=switches)
    assert sum(points[:-1]) == quadrature.N_START     # the last call reads u(0)
    points.clear()
    assert abs(characteristic_jensen(curve, r) - routed) <= DEFAULT_TOL * abs(routed)
    assert sum(points[:-1]) == JENSEN_HANDOVER


@pytest.mark.parametrize("seed, name, row", [(3, "locus03.json", 0), (6, "locus06.json", 0),
                                             (81, "locus03.json", 1)])
def test_false_stops_go_to_the_panels(seed, name, row, bench):
    # the trapezoid's two-level test stopped these tail circles of the
    # locus-bound benchmark 5.6e-8, 3.9e-12 and 9.7e-12 (relative) off a
    # 2^22-angle trapezoid; their switch slopes (187, 96 and 115) now send
    # them to the panels
    curve = parse_curve(bench("workloads").locus_bound_workload(seed).specs[name])
    r, t, _ = verify_theorem(curve, VERIFY_GRID).tail_rows[row]
    nodes, chunk = 1 << 20, 1 << 16
    reference = sum(np.sum(curve.u(r * np.exp(1j * np.arange(start, start + chunk) * (2 * math.pi / nodes))))
                    for start in range(0, nodes, chunk)) / nodes - curve.u(0.0)
    assert abs(t - reference) <= 1e-14 * abs(reference)
    # without switch points the trapezoid runs first and keeps its stop there
    integrals, _, running = quadrature._trapezoid_levels(curve.u, [r], DEFAULT_TOL, JENSEN_HANDOVER)
    assert not running.size and characteristic_jensen(curve, r) == integrals[0] / (2 * math.pi) - curve.u(0.0)


def test_missed_switches_fall_to_the_tie_guard(monkeypatch):
    # with no switch angles the panels start from the four quarters of the
    # circle, and bisection, on the error estimate and the tie guard, must
    # still reach the tolerance
    def nothing(curve, radii):
        return np.empty(0, dtype=int), np.empty(0, dtype=complex), np.empty(0, dtype=int)

    monkeypatch.setattr(characteristic, "switch_points", nothing)
    curve, r = parse_curve(N3_SIGMA05), VERIFY_GRID[15]
    reference = _oracle(N3_SIGMA05, r)
    assert abs(_jensen_integral(curve, r) - reference) <= DEFAULT_TOL * max(1.0, abs(reference))


@pytest.mark.parametrize("spec", [N3_SIGMA05, N4_SIGMA1, N6_SIGMA05], ids=["n3", "n4", "n6"])
def test_switch_points_find_every_argmax_change(spec):
    # where the argmax of log|f_k| changes between two of 2^16 angles, a
    # switch point lies within one step of them
    curve, radii, count = parse_curve(spec), VERIFY_GRID[12:], 1 << 16
    circle, z, pair = switch_points(curve, radii)
    assert circle.size == z.size == pair.size and np.all(np.abs(np.abs(z) - radii[circle]) <= 1e-12 * radii[circle])
    step = 2 * math.pi / count
    theta = np.arange(count) * step
    for c, r in enumerate(radii):
        winner = _component_logs(spec, r * np.exp(1j * theta)).argmax(axis=0)
        changes = theta[np.flatnonzero(winner != np.roll(winner, -1))]
        assert changes.size
        found = np.mod(np.angle(z[circle == c]), 2 * math.pi)
        # circular distance from each change's left angle to the nearest switch point
        gap = np.abs(np.angle(np.exp(1j * (changes[:, None] - found[None, :])))).min(axis=1)
        assert np.all(gap <= step * (1 + 1e-9)), (r, changes[gap > step])


def _gauss(f, lo, hi):
    """The 15-point Gauss-Legendre estimates and tie guards of the panel
    integrand f on the panels [lo[p], hi[p]], handed to f as rows of 17
    points, the ends around the nodes, as kronrod_panels hands them."""
    nodes, weights = np.polynomial.legendre.leggauss(15)
    half = (0.5 * (hi - lo)).real
    rows = np.concatenate([lo[:, None], (0.5 * (lo + hi))[:, None] + half[:, None] * nodes,
                           hi[:, None]], axis=1)
    values, accept = f(rows)
    return half * (values @ weights), accept


def _plain_and_guarded(curve, r, first, count):
    """(|whole - halves|, |halves - a fine composite rule|, the tie guard) on
    the Jensen panel [2 pi first / count, 2 pi (first + 1) / count] of |z| = r."""
    f, a, width = _tie_guarded_u(curve), -1j * math.log(r), 2 * math.pi / count
    lo, hi = np.array([a + first * width]), np.array([a + (first + 1) * width])
    mid = 0.5 * (lo + hi)
    whole, accept = _gauss(f, lo, hi)
    halves, _ = _gauss(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
    edges = np.linspace(lo[0], hi[0], 4097)
    fine, _ = _gauss(f, edges[:-1], edges[1:])
    return abs(halves.sum() - whole[0]), abs(halves.sum() - fine.sum()), bool(accept[0])


@pytest.mark.parametrize("spec, r, first, count", [
    # a switch between the outermost node and the panel end, in the panel and in its half
    (N4_SIGMA1, VERIFY_GRID[12], 10, 16),
    # whole and halves agree by coincidence around an interior switch
    (N6_SIGMA05, VERIFY_GRID[13], 158, 256),
], ids=["switch-past-the-last-node", "interior-switch"])
def test_tie_guard_rejects_what_the_plain_rule_accepts(spec, r, first, count):
    curve = parse_curve(spec)
    discrepancy, error, guard = _plain_and_guarded(curve, r, first, count)
    share = DEFAULT_TOL * max(1.0, abs(_jensen_integral(curve, r))) / count
    assert discrepancy <= share           # the whole-vs-halves test alone accepts the panel
    assert error > 100 * share            # yet it is far from its true value
    assert not guard


def test_panel_budget_raises_with_estimate_and_bound(monkeypatch, tmp_path, capsys):
    # JENSEN_MAX_PANELS allows as many nodes as the trapezoid's 2^20 angles
    assert quadrature.JENSEN_MAX_PANELS * 15 <= 1 << 20 < (quadrature.JENSEN_MAX_PANELS + 1) * 15
    curve, r = parse_curve(N3_SIGMA05), VERIFY_GRID[15]
    full = _jensen_integral(curve, r)
    monkeypatch.setattr(quadrature, "JENSEN_MAX_PANELS", 64)
    with pytest.raises(QuadratureBudgetError) as info:
        characteristic_jensen(curve, r)
    assert info.value.exit_code == 3
    assert isinstance(info.value.estimate, float) and 0.0 < info.value.error_bound < math.inf
    assert abs(info.value.estimate - full) <= info.value.error_bound
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(N3_SIGMA05))
    status = main(["verify-bound", "--input", str(spec), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert status == 3
    assert err.startswith("error: adaptive Gauss-Legendre panel budget exhausted") and "Traceback" not in err


# build_table rows (T_area, T_jensen, n) of the fixtures at r = 0.5 and 2, as
# float.hex. T_jensen was recorded before the Jensen route had its panel
# phase; T_area and n since the area route reads ||f'||^2 in product form
RECORDED_ROWS = {
    "exp": [["0x1.f0d577bbe3775p-6", "0x1.f0d577bbe1150p-6", "0x1.e27343f568c0ap-5"],
            ["0x1.71b1e894bf8cfp-2", "0x1.71b1e894bd2b1p-2", "0x1.1e316fae34c9ap-1"]],
    "line": [["0x1.c8ff7c79ac03ep-4", "0x1.c8ff7c79a9a21p-4", "0x1.9999999999998p-3"],
             ["0x1.9c041f7edd96ap-1", "0x1.9c041f7ed8d32p-1", "0x1.9999999999998p-1"]],
    "product2": [["0x1.6c05e7ce4a27dp-4", "0x1.6c05e7ce485ecp-4", "0x1.586b6112c644bp-3"],
                 ["0x1.a4be75b011960p-1", "0x1.a4be75b00e038p-1", "0x1.0319731a29de6p+0"]],
    "squareexp": [["0x1.fc0dfd8698416p-8", "0x1.fc0dfd8698400p-8", "0x1.f829be4664e51p-6"],
                  ["0x1.eb935027eef02p-1", "0x1.eb935027eef00p-1", "0x1.3cf4eca685037p+1"]],
}
# the same rows where numpy's complex multiply does not fuse, recorded under
# baseline dispatch (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"):
# line's T_area at r = 2 and squareexp's T_jensen at r = 0.5 move
BASELINE_RECORDED_ROWS = {
    **RECORDED_ROWS,
    "line": [["0x1.c8ff7c79ac03ep-4", "0x1.c8ff7c79a9a21p-4", "0x1.9999999999998p-3"],
             ["0x1.9c041f7edd96bp-1", "0x1.9c041f7ed8d32p-1", "0x1.9999999999998p-1"]],
    "squareexp": [["0x1.fc0dfd8698416p-8", "0x1.fc0dfd8698440p-8", "0x1.f829be4664e51p-6"],
                  ["0x1.eb935027eef02p-1", "0x1.eb935027eef00p-1", "0x1.3cf4eca685037p+1"]],
}
# the same rows where numpy's complex multiply fuses but its exp and log are
# libm's, recorded under AVX2 dispatch (NPY_DISABLE_CPU_FEATURES="X86_V4
# AVX512_ICL AVX512_SPR"): line's and product2's T_area at r = 2 move
AVX2_RECORDED_ROWS = {
    **RECORDED_ROWS,
    "line": [["0x1.c8ff7c79ac03ep-4", "0x1.c8ff7c79a9a21p-4", "0x1.9999999999998p-3"],
             ["0x1.9c041f7edd96bp-1", "0x1.9c041f7ed8d32p-1", "0x1.9999999999998p-1"]],
    "product2": [["0x1.6c05e7ce4a27dp-4", "0x1.6c05e7ce485ecp-4", "0x1.586b6112c644bp-3"],
                 ["0x1.a4be75b011962p-1", "0x1.a4be75b00e038p-1", "0x1.0319731a29de6p+0"]],
}
# (T_area, n) of the same rows while ||f'|| was exp(log numerator - log
# denominator), squared by the area route
LOG_FORM_ROWS = {
    "exp": [["0x1.f0d577bbe3775p-6", "0x1.e27343f568c0ap-5"],
            ["0x1.71b1e894bf8cep-2", "0x1.1e316fae34c9ap-1"]],
    "line": [["0x1.c8ff7c79ac03dp-4", "0x1.9999999999997p-3"],
             ["0x1.9c041f7edd96bp-1", "0x1.9999999999998p-1"]],
    "product2": [["0x1.6c05e7ce4a27dp-4", "0x1.586b6112c644bp-3"],
                 ["0x1.a4be75b011960p-1", "0x1.0319731a29de6p+0"]],
    "squareexp": [["0x1.fc0dfd8698414p-8", "0x1.f829be4664e51p-6"],
                  ["0x1.eb935027eef02p-1", "0x1.3cf4eca685037p+1"]],
}


@pytest.mark.identity
@pytest.mark.parametrize("name", sorted(RECORDED_ROWS))
def test_settled_rows_keep_their_bits(name, complex_multiply_fuses, simd_exp_log):
    table = build_table(load_curve(FIXTURES / f"{name}.json"), [0.5, 2.0])
    rows = [[v.hex() for v in row] for row in zip(table.T_area, table.T_jensen, table.n_counting)]
    golden = RECORDED_ROWS if simd_exp_log else AVX2_RECORDED_ROWS
    assert rows == (golden if complex_multiply_fuses else BASELINE_RECORDED_ROWS)[name]
    for (area, _, count), old in zip(RECORDED_ROWS[name], LOG_FORM_ROWS[name]):
        assert float.fromhex(area) == pytest.approx(float.fromhex(old[0]), rel=1e-12, abs=0.0)
        assert float.fromhex(count) == pytest.approx(float.fromhex(old[1]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(RECORDED_ROWS))
def test_settled_circles_are_the_trapezoid(name):
    # a circle settled by JENSEN_HANDOVER angles is periodic_trapezoid's value,
    # whichever circles beside it go on to panels
    curve = load_curve(FIXTURES / f"{name}.json")
    radii = np.concatenate([[0.3, 1.0, 2.5, 7.0], VERIFY_GRID[12:]])
    running = _trapezoid_levels(curve.u, radii, DEFAULT_TOL, JENSEN_HANDOVER)[2]
    settled = np.setdiff1d(np.arange(radii.size), running)
    trapezoid = periodic_trapezoid(curve.u, radii[settled], DEFAULT_TOL) / (2 * math.pi) - curve.u(0.0)
    assert characteristic_jensen(curve, radii)[settled].tolist() == trapezoid.tolist()


@pytest.mark.identity
def test_panel_circles_batched_as_scalar():
    # every circle has its own panel tree and its own sums, so a radius gives
    # the same bits alone as among others that go on to panels with it
    curve = parse_curve(N6_SIGMA05)
    radii = VERIFY_GRID[11:]
    assert _trapezoid_levels(curve.u, radii, DEFAULT_TOL, JENSEN_HANDOVER)[2].size >= 3
    assert characteristic_jensen(curve, radii).tolist() == [characteristic_jensen(curve, r) for r in radii]
