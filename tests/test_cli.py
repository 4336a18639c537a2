import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from test_readme import readme_commands

from distqc import cli, oracles, telegate
from distqc.cli import MAX_GRID, build_parser, main
from distqc.oracles import SUITES
from distqc.pauli import ChannelParams, depolarizing_noise, effective_pg
from distqc.purify import PumpSchedule, pump
from distqc.threshold import ThresholdConditions, p_M_of, pipeline_passes, q_values


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_pump_leading_order_point(capsys):
    code, out = run(capsys, "pump", "--F", "1.0", "--pg", "1e-4", "--pM", "equal",
                    "--schedule", "1,2,2")
    assert code == 0
    payload = json.loads(out)
    lead = np.array([4, 2, 2]) * 1e-4 / 15
    np.testing.assert_allclose(payload["f_bar"][1:], lead, rtol=0.01)
    assert payload["scheme"] == "double"
    assert set(payload["success_probs"]) == {"r_lv1", "p_lv1", "r_lv2"}


def test_pump_single_scheme(capsys):
    code, out = run(capsys, "pump", "--F", "0.9", "--pg", "1e-3", "--schedule", "3,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["scheme"] == "single"
    assert payload["infidelity"] < 0.1


def test_threshold_curve_csv(capsys):
    code, out = run(capsys, "threshold-curve", "--schedule", "1,2,2",
                    "--grid", "0.9:1.0:3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# distqc")
    assert lines[1] == "F,p_g"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    last_F, last_p = map(float, rows[-1])
    assert last_F == 1.0
    assert last_p == pytest.approx(0.0026, abs=1e-4)


def test_qvalues_from_explicit_fbar(capsys):
    code, out = run(capsys, "qvalues", "--fbar", "0.997,0.001,0.001,0.001",
                    "--pg", "0", "--pM", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["qa"] == pytest.approx(8e-3)
    assert payload["qb"] == pytest.approx(4e-3)
    assert payload["fault_tolerant"] is True


@pytest.mark.parametrize("argv", [
    ("--fbar", "0.99,0.004,0.003,0.003", "--pg", "1e-3"),
    ("--F", "0.91", "--pg", "1.1e-3", "--schedule", "5,13"),
])
def test_qvalues_reports_non_fault_tolerant_points(capsys, argv):
    # an independent-rate bound fails first here; the verdict must still
    # serialise as a JSON boolean
    code, out = run(capsys, "qvalues", *argv)
    assert code == 0
    assert '"fault_tolerant": false' in out


def test_ttg_reports_circuit_agreement(capsys):
    code, out = run(capsys, "ttg", "--kind", "II", "--fbar", "0.997,0.001,0.001,0.001",
                    "--pg", "0.0015", "--pM", "0.001")
    assert code == 0
    payload = json.loads(out)
    assert payload["circuit_table_max_dev"] < 1e-12
    assert len(payload["table"]) == 16


def test_resource_point_with_overheads(capsys):
    code, out = run(capsys, "resource", "--F", "0.9", "--pg", "1e-3",
                    "--schedule", "1,2,2", "--n-bits", "1024")
    assert code == 0
    payload = json.loads(out)
    assert 25 <= payload["K"] <= 60
    assert payload["T"] == pytest.approx(2e10 * payload["Omega"])
    assert payload["R"] == pytest.approx(payload["K"] * payload["T"])


def test_infidelity_contour_to_file(tmp_path, capsys):
    out_path = tmp_path / "contour.csv"
    code, _ = run(capsys, "infidelity-contour", "--schedule", "1,2,2",
                  "--level", "1e-3", "--grid", "0.95:0.99:2", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[1] == "schedule,F,p_g"
    assert '"1,2,2"' in text


def test_output_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _ = run(capsys, "resource", "--F", "0.9", "--pg", "1e-3",
                      "--schedule", "1,2,2", "--mc-trials", "20000",
                      "--seed", "7", "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_an_unwritable_out_path_is_one_error_line(tmp_path, capsys, where):
    path = tmp_path if where == "directory" else tmp_path / "nope" / "x.json"
    before = sorted(tmp_path.rglob("*"))
    code = main(["pump", "--schedule", "1,2,2", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error:") and str(path) in line
    assert "Traceback" not in captured.err
    assert sorted(tmp_path.rglob("*")) == before


def test_monte_carlo_refuses_a_point_beyond_its_draw_budget(capsys):
    # p_net ~ 4.8e-24 here: the restart loop would need ~1e27 round draws
    start = time.perf_counter()
    code = main(["resource", "--F", "0.3", "--pg", "0.04", "--schedule", "3,4,14",
                 "--mc-trials", "100"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "4.84e-24" in err
    assert elapsed < 1.0


def test_validation_errors_exit_one(capsys):
    assert main(["pump", "--F", "1.2", "--pg", "1e-4", "--schedule", "1,2,2"]) == 1
    capsys.readouterr()
    assert main(["pump", "--F", "0.9", "--pg", "1e-4", "--schedule", "1,2"]) == 0
    capsys.readouterr()
    assert main(["pump", "--F", "0.9", "--pg", "1e-4", "--schedule", "1,2,3,4"]) == 1
    capsys.readouterr()
    assert main(["pump", "--unknown-flag", "1"]) == 1
    capsys.readouterr()
    assert main(["resource", "--schedule", "1,2,2", "--levels", "30"]) == 1
    capsys.readouterr()


def test_memory_error_substitution(capsys):
    code, out = run(capsys, "pump", "--F", "0.9", "--pg", "1e-3", "--eta", "1e-4",
                    "--l-wait", "5", "--schedule", "1,2,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_g"] == pytest.approx(1.5e-3)
    assert payload["p_M"] == pytest.approx(1.5e-3)
    # folding memory error past the cap is a validation error
    assert main(["pump", "--F", "0.9", "--pg", "0.5", "--eta", "0.1",
                 "--l-wait", "5", "--schedule", "1,2,2"]) == 1
    capsys.readouterr()


def test_a_zero_memory_rate_given_reads_the_wait(capsys):
    # --eta folds memory error whenever it is given, 0 included, and adds
    # nothing at 0: the same bytes as a call without memory error
    plain = main(["pump", "--F", "0.9", "--schedule", "1,2,2"]), *capsys.readouterr()
    code = main(["pump", "--F", "0.9", "--eta", "0", "--l-wait", "3", "--schedule", "1,2,2"])
    assert (code, *capsys.readouterr()) == plain
    assert plain[0] == 0 and plain[2] == ""


@pytest.mark.parametrize("argv", [
    ("pump", "--F", "0.9", "--schedule", "1,2,2"),
    ("ttg", "--kind", "II"),
    ("qvalues", "--fbar", "0.97,0.01,0.01,0.01"),
    ("resource", "--schedule", "1,2,2"),
], ids=lambda argv: argv[0])
def test_memory_rate_without_a_wait_is_refused(capsys, argv):
    # --eta alone names no waiting steps, so it would fold no memory error
    # and be ignored; it is refused, as --l-wait without --eta is
    code = main([*argv, "--eta", "1e-4"])
    assert (code, *capsys.readouterr()) == (
        1, "", "error: --eta needs --l-wait: memory error is eta times the waiting steps\n")


def test_point_commands_run_at_the_rate_they_were_given(capsys):
    # each point command echoes the rate it ran at, --pg with memory error
    # folded in when --eta is given; qvalues evaluates its rates and its
    # verdict at that rate, as every threshold-curve lane does
    rng = np.random.default_rng(2012)
    schedules = ["1,2,2", "3,4,14", "5,13", "2,4"]
    for _ in range(60):
        F, p_g = rng.uniform(0.7, 1.0), 10 ** rng.uniform(-4, -2)
        rule = ("equal", "four_fifteenths")[rng.integers(2)]
        schedule = schedules[rng.integers(len(schedules))]
        margin = (1.0, 1 / 3)[rng.integers(2)]
        point = ["--F", repr(F), "--pg", repr(p_g), "--pM", rule]
        rate = p_g
        if rng.random() < 0.5:
            eta, l_wait = 10 ** rng.uniform(-7, -5), int(rng.integers(4))
            point += ["--eta", repr(eta), "--l-wait", str(l_wait)]
            rate = effective_pg(p_g, eta, l_wait)
        p_M = p_M_of(rule, rate)
        code, out = run(capsys, "qvalues", *point, "--schedule", schedule, "--margin", repr(margin))
        assert code == 0
        payload = json.loads(out)
        parsed = PumpSchedule.parse(schedule)
        f_out = pump(ChannelParams(F), parsed, depolarizing_noise(rate, p_M)).f_out
        q = dataclasses.asdict(q_values(f_out, rate, p_M))
        assert {k: payload[k] for k in q} == q
        assert payload["fault_tolerant"] == pipeline_passes(F, rate, parsed, rule, ThresholdConditions(margin))
        for argv in (["pump", *point, "--schedule", schedule], ["ttg", "--kind", "II", *point],
                     ["resource", *point, "--schedule", schedule], ["qvalues", *point]):
            code, out = run(capsys, *argv)
            assert code == 0 and json.loads(out)["p_g"] == rate


def test_verify_passes(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == len(SUITES)


# kind I layouts with one fault each: the data-side measurement in the wrong
# basis (a uniform gate table cannot see it) and its flip correction in the
# syndrome-side frame (any table with p_M > 0 shows it)
WRONG_BASIS = (
    ("cz", telegate._B_IN, telegate._ED),
    ("noise", "p", (telegate._ED, telegate._B_IN)),
    ("measure", telegate._B_IN, "Z", telegate._FRAME_DATA),
)
WRONG_FRAME = (
    ("cz", telegate._B_IN, telegate._ED),
    ("noise", "p", (telegate._ED, telegate._B_IN)),
    ("measure", telegate._B_IN, "X", telegate._FRAME_SYNDROME),
)


@pytest.mark.parametrize("layout", [WRONG_BASIS, WRONG_FRAME], ids=["basis", "frame"])
def test_verify_fails_on_a_broken_gate_layout(capsys, monkeypatch, layout):
    # verify draws general tables, and a failing suite reports the deviation
    # of its failing points, not that of the points that passed
    monkeypatch.setitem(telegate._LAYOUTS, telegate.GateKind.I, layout)
    code, out = run(capsys, "verify")
    assert code == 2
    [line] = [line for line in out.splitlines() if line.startswith("FAIL")]
    match = re.fullmatch(r"FAIL  gate error tables vs circuit propagation  \(max dev (\S+)\)", line)
    assert match and float(match[1]) > 1e-12
    assert out.count("PASS") == len(SUITES) - 1


def test_ttg_maps_a_table_mismatch_to_exit_two(capsys, monkeypatch):
    monkeypatch.setitem(telegate._LAYOUTS, telegate.GateKind.I, WRONG_FRAME)
    code = main(["ttg", "--kind", "I", "--F", "0.9"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    noise = depolarizing_noise(1e-3, 1e-3)
    f_bar = pump(ChannelParams(0.9), PumpSchedule.parse("1,2,2"), noise).f_out
    dev = np.abs(telegate.gate_error_table_from_circuit(telegate.GateKind.I, f_bar, noise)
                 - telegate.gate_error_table(telegate.GateKind.I, f_bar, noise)).max()
    assert dev > 1e-12
    assert captured.err == ("internal discrepancy: kind I: circuit table deviates from the closed form "
                            f"by {dev:.3e}\n")


@pytest.mark.parametrize("deviation, code", [(np.nextafter(oracles.TOL, 0), 0), (oracles.TOL, 2)])
def test_ttg_exits_two_from_a_deviation_of_tol_on(capsys, monkeypatch, deviation, code):
    table = np.zeros((4, 4))
    table[3, 1] = deviation
    monkeypatch.setattr(cli, "gate_error_table", lambda *args: np.zeros((4, 4)))
    monkeypatch.setattr(cli, "gate_error_table_from_circuit", lambda *args: table)
    assert main(["ttg", "--kind", "II", "--fbar", "1,0,0,0"]) == code
    capsys.readouterr()


@pytest.mark.parametrize("deviation, verdict", [(np.nextafter(1.0, 0), "PASS"), (1.0, "FAIL"), (np.nan, "FAIL")])
def test_verify_passes_a_suite_only_strictly_below_its_tolerance(capsys, monkeypatch, deviation, verdict):
    monkeypatch.setattr(oracles, "SUITES", (("edge", lambda rng: (deviation, 1.0)),))
    code, out = run(capsys, "verify")
    assert out.split()[:2] == [verdict, "edge"]
    assert code == (0 if verdict == "PASS" else 2)


# stdout recorded before the sweeps were evaluated lane by lane; every byte,
# down to the last printed digit, must stay the same
PINNED_SWEEPS = {
    ("threshold-curve", "--schedule", "3,4,14", "--grid", "0.2:1.0:5"): """\
# distqc 0.1.0 threshold-curve schedule=3,4,14 grid=0.2:1.0:5 pM=equal margin=1.0
F,p_g
0.20000000000000001,nan
0.40000000000000002,0
0.60000000000000009,0
0.80000000000000004,0.0026087185221180141
1,0.0026087185221180141
""",
    ("threshold-curve", "--schedule", "3,4,14", "--grid", "0.2:1.0:5",
     "--pM", "four_fifteenths", "--margin", "0.5"): """\
# distqc 0.1.0 threshold-curve schedule=3,4,14 grid=0.2:1.0:5 pM=four_fifteenths margin=0.5
F,p_g
0.20000000000000001,nan
0.40000000000000002,0
0.60000000000000009,0
0.80000000000000004,0.0017137445923345238
1,0.0028568093059729593
""",
    ("infidelity-contour", "--schedule", "1,2,2", "--schedule", "5,13",
     "--level", "1e-3", "--grid", "0.8:0.99:6"): """\
# distqc 0.1.0 infidelity-contour level=0.001 grid=0.8:0.99:6
schedule,F,p_g
"1,2,2",0.91400000000000003,0.00037360351562500013
"1,2,2",0.95199999999999996,0.0013623828125000001
"1,2,2",0.98999999999999999,0.0017696093750000003
"5,13",0.80000000000000004,5.8923339843750002e-05
"5,13",0.83800000000000008,7.6701660156250028e-05
"5,13",0.876,8.8874511718750005e-05
"5,13",0.91400000000000003,0.00010035644531250002
"5,13",0.95199999999999996,0.00011249511718750002
"5,13",0.98999999999999999,0.00012565917968750001
""",
    ("resource", "--schedule", "2,4,8", "--levels", "20,80,400", "--grid", "0.8:0.99:6"): """\
# distqc 0.1.0 resource levels=20,80,400 grid=0.8:0.99:6
K,F,p_g
80,0.98999999999999999,0.0016936718749999999
400,0.95199999999999996,0.001854296875
400,0.98999999999999999,0.0123384375
""",
    # both schedules omit points whose level is reached already at p = 0
    ("infidelity-contour", "--schedule", "2,4", "--schedule", "3,4,14",
     "--level", "1e-3", "--grid", "0.7:0.98:5"): """\
# distqc 0.1.0 infidelity-contour level=0.001 grid=0.7:0.98:5
schedule,F,p_g
"2,4",0.90999999999999992,7.760498046875001e-05
"2,4",0.97999999999999998,0.00032541992187499997
"3,4,14",0.77000000000000002,0.00020299804687500005
"3,4,14",0.83999999999999997,0.00072564453125000016
"3,4,14",0.90999999999999992,0.0011516796874999999
"3,4,14",0.97999999999999998,0.0016619531250000002
""",
    # the local-operation cost model: levels 12 and 40, and 2000 at F = 0.75,
    # are reached already at p = 0; F = 0.99 does not reach 2000 by P_MAX
    ("resource", "--schedule", "2,4", "--levels", "12,40,2000", "--grid", "0.75:0.99:4",
     "--count-local-ops"): """\
# distqc 0.1.0 resource levels=12,40,2000 grid=0.75:0.99:4
K,F,p_g
2000,0.82999999999999996,0.012725625000000001
2000,0.91000000000000003,0.04035625000000001
""",
    # point queries: every printed digit rests on the last bits of the
    # pumping chain, where a sweep shows a flipped bit only if it flips a
    # bisection decision
    ("pump", "--F", "0.9", "--pg", "1e-3", "--schedule", "5,13"): """\
{
  "F": 0.9,
  "attempt_base_pairs": 84,
  "attempt_measurements": 166,
  "attempt_twoq_gates": 166,
  "f_bar": [
    0.9896249771515938,
    0.009535523789605082,
    0.00041974918482606794,
    0.0004197498739750367
  ],
  "infidelity": 0.01037502284840619,
  "p_M": 0.001,
  "p_g": 0.001,
  "schedule": [
    5,
    13
  ],
  "scheme": "single",
  "success_probs": {
    "p_lv1": 0.6502593380833784,
    "p_lv2": 0.05895236220346641
  },
  "version": "0.1.0"
}
""",
    ("pump", "--F", "0.85", "--pg", "2e-3", "--pM", "four_fifteenths", "--schedule", "3,4,14"): """\
{
  "F": 0.85,
  "attempt_base_pairs": 79,
  "attempt_measurements": 156,
  "attempt_twoq_gates": 156,
  "f_bar": [
    0.9974711614403818,
    0.0012412229634169796,
    0.0005425827624439055,
    0.0007450328337572763
  ],
  "infidelity": 0.002528838559618163,
  "p_M": 0.0005333333333333334,
  "p_g": 0.002,
  "schedule": [
    3,
    4,
    14
  ],
  "scheme": "double",
  "success_probs": {
    "p_lv1": 0.6492863418795368,
    "r_lv1": 0.22973230306783846,
    "r_lv2": 0.005698395060392359
  },
  "version": "0.1.0"
}
""",
    ("resource", "--F", "0.9", "--pg", "1e-3", "--schedule", "2,4,8", "--count-local-ops"): """\
{
  "F": 0.9,
  "K": 16574.897987895078,
  "p_M": 0.001,
  "p_g": 0.001,
  "schedule": [
    2,
    4,
    8
  ],
  "version": "0.1.0"
}
""",
    # gate tables: the closed form, and the circuit oracle's deviation from
    # it, which sums the same sources in a fixed order
    ("ttg", "--kind", "I", "--fbar", "0.99,0.004,0.003,0.003", "--pg", "2e-3", "--pM", "1e-3"): """\
{
  "aggregates": {
    "p_xbarz": 0.008066666666666666,
    "p_xz": 0.0,
    "p_xzbar": 0.0,
    "p_zbarx": 0.0005333333333333334,
    "p_zx": 0.0015333333333333336,
    "p_zxbar": 0.006533333333333334
  },
  "circuit_table_max_dev": 0.0,
  "f_bar": [
    0.99,
    0.004,
    0.003,
    0.003
  ],
  "kind": "I",
  "p_M": 0.001,
  "p_g": 0.002,
  "table": [
    0.0,
    0.0002666666666666667,
    0.0002666666666666667,
    0.004266666666666667,
    0.0,
    0.0,
    0.0,
    0.0,
    0.0,
    0.0,
    0.0,
    0.0,
    0.003266666666666667,
    0.0012666666666666668,
    0.0002666666666666667,
    0.003266666666666667
  ],
  "total_error": 0.012866666666666667,
  "version": "0.1.0"
}
""",
    ("ttg", "--kind", "II", "--fbar", "0.99,0.004,0.003,0.003", "--pg", "2e-3", "--pM", "1e-3"): """\
{
  "aggregates": {
    "p_xbarz": 0.0086,
    "p_xz": 0.0015333333333333336,
    "p_xzbar": 0.0005333333333333334,
    "p_zbarx": 0.0005333333333333334,
    "p_zx": 0.0015333333333333336,
    "p_zxbar": 0.007600000000000001
  },
  "circuit_table_max_dev": 0.0,
  "f_bar": [
    0.99,
    0.004,
    0.003,
    0.003
  ],
  "kind": "II",
  "p_M": 0.001,
  "p_g": 0.002,
  "table": [
    0.0,
    0.0002666666666666667,
    0.0002666666666666667,
    0.004533333333333334,
    0.0002666666666666667,
    0.0,
    0.0,
    0.0012666666666666668,
    0.0002666666666666667,
    0.0,
    0.0,
    0.0002666666666666667,
    0.0035333333333333336,
    0.0012666666666666668,
    0.0002666666666666667,
    0.0035333333333333336
  ],
  "total_error": 0.015733333333333335,
  "version": "0.1.0"
}
""",
    ("ttg", "--kind", "III", "--fbar", "0.99,0.004,0.003,0.003", "--pg", "2e-3", "--pM", "1e-3"): """\
{
  "aggregates": {
    "p_xbarz": 0.0086,
    "p_xz": 0.0015333333333333336,
    "p_xzbar": 0.0005333333333333334,
    "p_zbarx": 0.0005333333333333334,
    "p_zx": 0.0015333333333333336,
    "p_zxbar": 0.007600000000000001
  },
  "circuit_table_max_dev": 0.0,
  "f_bar": [
    0.99,
    0.004,
    0.003,
    0.003
  ],
  "kind": "III",
  "p_M": 0.001,
  "p_g": 0.002,
  "table": [
    0.0,
    0.0002666666666666667,
    0.0002666666666666667,
    0.004533333333333334,
    0.0002666666666666667,
    0.0,
    0.0,
    0.0012666666666666668,
    0.0002666666666666667,
    0.0,
    0.0,
    0.0002666666666666667,
    0.0035333333333333336,
    0.0012666666666666668,
    0.0002666666666666667,
    0.0035333333333333336
  ],
  "total_error": 0.015733333333333335,
  "version": "0.1.0"
}
""",
}


@pytest.mark.parametrize("argv", list(PINNED_SWEEPS))
def test_sweep_output_is_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == PINNED_SWEEPS[argv]


@pytest.mark.parametrize("option", [("--F", "0.5"), ("--pg", "0.3"), ("--eta", "1e-3"),
                                    ("--l-wait", "3"), ("--seed", "3")])
def test_threshold_curve_refuses_point_options(capsys, option):
    # the curve scans p_g over a fidelity grid; a point or memory error
    # option would be dropped unread
    code = main(["threshold-curve", "--schedule", "3,4,14", "--grid", "0.9:1.0:2", *option])
    assert code == 1
    assert option[0] in capsys.readouterr().err


@pytest.mark.parametrize("option", [("--F", "0.9"), ("--pg", "1e-3"), ("--pM", "equal"),
                                    ("--eta", "1e-4"), ("--l-wait", "2"),
                                    ("--mc-trials", "100"), ("--n-bits", "1024"),
                                    ("--seed", "3"), ("--T-per-gate", "5")])
def test_resource_contour_refuses_point_options(capsys, option):
    code = main(["resource", "--schedule", "1,2,2", "--levels", "30", "--grid", "0.9:0.95:2",
                 *option])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and option[0] in captured.err


@pytest.mark.parametrize("argv", [
    ("pump", "--F", "0.9", "--schedule", "1,2,2", "--seed", "5"),
    ("ttg", "--kind", "II", "--seed", "5"),
    ("qvalues", "--seed", "5"),
    ("infidelity-contour", "--schedule", "1,2,2", "--grid", "0.9:0.95:2", "--seed", "5"),
    ("resource", "--schedule", "1,2,2", "--seed", "5"),
    ("resource", "--schedule", "1,2,2", "--T-per-gate", "5"),
    ("resource", "--F", "0.9", "--schedule", "1,2,2", "--grid", "0.8:0.9:3"),
    ("ttg", "--kind", "II", "--fbar", "0.97,0.01,0.01,0.01", "--F", "0.5"),
    ("ttg", "--kind", "II", "--fbar", "0.97,0.01,0.01,0.01", "--schedule", "9,9"),
    ("qvalues", "--fbar", "0.97,0.01,0.01,0.01", "--F", "0.5"),
    ("qvalues", "--fbar", "0.97,0.01,0.01,0.01", "--schedule", "9,9"),
    ("pump", "--F", "0.9", "--schedule", "1,2,2", "--l-wait", "7"),
    ("ttg", "--kind", "II", "--l-wait", "7"),
    ("qvalues", "--l-wait", "7"),
    ("resource", "--schedule", "1,2,2", "--l-wait", "7"),
])
def test_unread_options_are_refused(capsys, argv):
    # only resource --mc-trials reads --seed, only resource --n-bits reads
    # --T-per-gate, only resource --levels reads --grid, --fbar replaces
    # the pumped vector of --F and --schedule, and only --eta reads
    # --l-wait; elsewhere each would be dropped unread
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert argv[-2] in captured.err


@pytest.mark.parametrize("command", [("ttg", "--kind", "II"), ("qvalues",)])
def test_fbar_keeps_the_noise_options(capsys, command):
    # the teleported gate and the q-values still read the local noise
    code, out = run(capsys, *command, "--fbar", "0.97,0.01,0.01,0.01", "--pg", "2e-3",
                    "--pM", "1e-3", "--eta", "1e-4", "--l-wait", "2")
    assert code == 0
    assert json.loads(out)["p_g"] > 2e-3


def test_monte_carlo_refuses_negative_trials(capsys):
    code = main(["resource", "--schedule", "1,2,2", "--mc-trials", "-5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "at least 1 trial" in captured.err


@pytest.mark.parametrize("n, refused", [(300, True), (250, False)])
def test_monte_carlo_refuses_an_attempt_longer_than_a_block(capsys, n, refused):
    # one attempt of schedule n,n runs n(1 + n) + n rounds: 90 600 for 300,300 and
    # 63 000 for 250,250, against MC_BLOCK_DRAWS = 65 536
    code = main(["resource", "--F", "1", "--pg", "0", "--schedule", f"{n},{n}", "--mc-trials", "1"])
    captured = capsys.readouterr()
    if refused:
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: Monte Carlo cross-check refused: one attempt runs 90600 rounds, "
                                "more than the block of MC_BLOCK_DRAWS = 65536 round draws\n")
    else:
        assert code == 0 and json.loads(captured.out)["K_monte_carlo"] > 0


def test_monte_carlo_accepts_one_trial(capsys):
    # one trial is the fewest the cross-check runs
    code, out = run(capsys, "resource", "--F", "0.9", "--pg", "1e-3", "--schedule", "1,2,2",
                    "--mc-trials", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["mc_trials"] == 1 and payload["K_monte_carlo"] > 0


@pytest.mark.parametrize("argv, err", [
    (["resource", "--schedule", "1,2,2", "--levels", "0", "--grid", "0.9:0.95:2"],
     "error: contour level must be finite and positive, got 0.0\n"),
    (["infidelity-contour", "--schedule", "1,2,2", "--level", "0", "--grid", "0.9:0.95:2"],
     "error: contour level must lie in (0, 1], got 0.0\n"),
], ids=["resource", "infidelity-contour"])
def test_contour_level_zero_is_refused(capsys, argv, err):
    # 0 is the open end of both families' level range
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("command", [
    ["pump", "--F", "0.9", "--schedule", "1,2,2"],
    ["threshold-curve", "--schedule", "1,2,2", "--grid", "0.9:1.0:2"],
], ids=lambda argv: argv[0])
def test_fixed_measurement_error_of_one_is_refused(capsys, command):
    code = main([*command, "--pM", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: p_M must lie in [0, 1), got 1.0\n"


def test_underflow_reports_only_the_error(capsys):
    # a lane whose success probability underflows ends in the error line
    # alone, without a numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["pump", "--F", "0.9", "--schedule", "300,3000"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: level-2 single pumping: success probability underflowed to 0\n"


@pytest.mark.parametrize("grid, err", [
    ("0.7:1.0", "error: grid must be start:stop:count, got '0.7:1.0'\n"),
    ("0.7:1.0:0", "error: grid count must be at least 1, got 0\n"),
    ("nan:0.95:3", "error: grid start and stop must be finite, got 'nan:0.95:3'\n"),
    ("0.9:inf:3", "error: grid start and stop must be finite, got '0.9:inf:3'\n"),
    ("0.9:-inf:2", "error: grid start and stop must be finite, got '0.9:-inf:2'\n"),
    ("1e308:-1e308:3", "error: grid span and points must be finite, got '1e308:-1e308:3'\n"),
    ("0:1e308:3", "error: grid span and points must be finite, got '0:1e308:3'\n"),
])
@pytest.mark.parametrize("command", [
    ["threshold-curve", "--schedule", "2,4"],
    ["infidelity-contour", "--schedule", "2,4"],
    ["resource", "--schedule", "2,4", "--levels", "30"],
], ids=lambda argv: argv[0])
def test_malformed_grid_is_refused(capsys, command, grid, err):
    code = main([*command, "--grid", grid])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == err


#: argv with one malformed option value, and the last line of its refusal
MALFORMED = [
    (["pump", "--schedule", "1.5,2"], "error: schedule counts must be integers: '1.5,2'"),
    (["pump", "--schedule", "a,b"], "error: schedule counts must be integers: 'a,b'"),
    (["pump", "--schedule", ""], "error: schedule counts must be integers: ''"),
    (["infidelity-contour", "--schedule", "1,x", "--grid", "0.9:1:2"],
     "error: schedule counts must be integers: '1,x'"),
    (["threshold-curve", "--schedule", "1,2,2", "--grid", "0.9:1:x"],
     "error: grid count must be an integer, got '0.9:1:x'"),
    (["threshold-curve", "--schedule", "1,2,2", "--grid", "a:1:2"],
     "error: grid start and stop must be numbers, got 'a:1:2'"),
    (["resource", "--schedule", "1,2,2", "--levels", "30,x", "--grid", "0.9:1:2"],
     "error: --levels must be comma-separated numbers, got '30,x'"),
    (["ttg", "--kind", "II", "--fbar", "1,0,0,x"], "error: --fbar must be comma-separated numbers, got '1,0,0,x'"),
    (["ttg", "--kind", "II", "--fbar", "1,0,0"], "error: --fbar must have 4 comma-separated entries, got '1,0,0'"),
    (["pump", "--schedule", "1,-2"], "error: schedule counts must be non-negative integers: '1,-2'"),
    (["pump", "--schedule", "1,2,2", "--pM", "half"],
     "distqc pump: error: argument --pM: unknown p_M rule 'half'; expected 'equal', 'four_fifteenths' or a number"),
    (["verify", "--seed", "-1"], "error: seed must be a non-negative integer, got -1"),
    (["resource", "--F", "0.9", "--schedule", "1,2,2", "--mc-trials", "5", "--seed", "-1"],
     "error: seed must be a non-negative integer, got -1"),
]


@pytest.mark.parametrize("argv, err", MALFORMED, ids=[" ".join(argv) for argv, _ in MALFORMED])
def test_a_malformed_option_value_names_its_option(capsys, argv, err):
    # Python's and numpy's own conversion errors name no option; each
    # refusal is one line that names the option and quotes the value
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.splitlines()[-1] == err
    assert not any(text in captured.err for text in
                   ("_parse_pm", "invalid literal", "could not convert", "expected non-negative integer"))


def test_schedule_beyond_the_round_cap_is_refused(capsys):
    start = time.perf_counter()
    code = main(["pump", "--F", "0.999", "--pg", "1e-6", "--schedule", "1,300000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "MAX_ROUNDS = 10000" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("cap, count", [(3, 3), (MAX_GRID, MAX_GRID + 1), (MAX_GRID, 10**9)],
                         ids=["at a cap of 3", "cap + 1", "a billion"])
@pytest.mark.parametrize("command", [
    ["threshold-curve", "--schedule", "2,4"],
    ["infidelity-contour", "--schedule", "2,4", "--level", "1e-3"],
    ["resource", "--schedule", "1,2,2", "--levels", "30"],
], ids=["threshold-curve", "infidelity-contour", "resource"])
def test_grid_beyond_its_cap_is_refused(capsys, monkeypatch, command, cap, count):
    # a count past the cap is refused before a grid point is built; a grid
    # of the cap's size runs (at a small cap, so that it runs fast)
    monkeypatch.setattr(cli, "MAX_GRID", cap)
    start = time.perf_counter()
    code = main([*command, "--grid", f"0.7:1.0:{count}"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    if count == cap:
        assert code == 0 and captured.err == "" and len(captured.out.splitlines()) > 2
    else:
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: grid count {count} exceeds MAX_GRID = 100000 points\n"
    assert elapsed < 1.0


@pytest.mark.parametrize("levels", ["", " "])
def test_empty_level_list_is_refused(capsys, levels):
    # an empty --levels is a contour request without levels, not a point query
    code = main(["resource", "--schedule", "2,4", "--levels", levels, "--grid", "0.9:0.95:3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: --levels needs at least one level\n"


@pytest.mark.parametrize("levels", ["1,2,3", "1,2"], ids=["beyond the cap", "at the cap"])
def test_cost_contour_lanes_beyond_the_grid_cap_are_refused(capsys, monkeypatch, levels):
    # each level x grid point is one lane of search state; the product is
    # capped like a grid and refused before any lane is built, and a product
    # at the cap is built
    built = []
    monkeypatch.setattr(cli, "MAX_GRID", 4)
    monkeypatch.setattr(cli, "contour_expected_cost",
                        lambda schedule, levels, grid, model: built.append(len(levels) * len(grid)) or [])
    code = main(["resource", "--schedule", "1,2,2", "--levels", levels, "--grid", "0.9:0.95:2"])
    captured = capsys.readouterr()
    if levels == "1,2":
        assert (code, captured.err, built) == (0, "", [4])
    else:
        assert code == 1 and captured.out == "" and built == []
        assert captured.err == "error: 3 levels x 2 grid points exceed MAX_GRID = 4 contour lanes\n"


def test_cost_contour_refuses_an_infinite_level(capsys):
    # an inf level would trace where p_net underflows, not a cost level
    code = main(["resource", "--schedule", "20,300", "--levels", "inf", "--grid", "0.9:1.0:3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: contour level must be finite and positive, got inf\n"


def test_cost_contour_whose_cost_overflows_writes_no_warning(capsys):
    # K overflows to inf near F = 1 and lies above the level: one clean row
    code = main(["resource", "--schedule", "20,300", "--levels", "1e300", "--grid", "1.0:1.0:1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.splitlines()[1:] == ["K,F,p_g", "1.0000000000000001e+300,1,0.028478750000000004"]


@pytest.mark.parametrize("n_bits, T_per_gate", [("1024", "nan"), ("1" + "0" * 100, "2e10"),
                                                ("1" + "0" * 400, "2e10")],
                         ids=["nan T-per-gate", "101-digit n-bits", "401-digit n-bits"])
def test_json_holds_no_non_finite_number(capsys, n_bits, T_per_gate):
    # NaN and Infinity are not JSON; a huge --n-bits overflows T or the gate count
    code = main(["resource", "--schedule", "1,2,2", "--n-bits", n_bits,
                 "--T-per-gate", T_per_gate])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [("qvalues", "--fbar", "nan,0,0,0", "--pg", "1e-3"),
                                  ("ttg", "--kind", "II", "--fbar", "nan,0,0,0")])
def test_nan_fidelity_vector_is_refused_with_a_reason(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: fidelity vector entries outside [0, 1]: ")


def test_a_nan_memory_rate_is_blamed_on_eta(capsys):
    code = main(["pump", "--F", "0.9", "--eta", "nan", "--l-wait", "1", "--schedule", "1,2,2"])
    assert (code, *capsys.readouterr()) == (
        1, "", "error: p_g, eta and l_wait must be non-negative, got 0.001, nan and 1\n")


def test_an_infinite_memory_rate_with_no_wait_is_blamed_on_eta(capsys):
    # eta * l_wait is inf * 0, a NaN that used to reach --pg's range check
    code = main(["pump", "--F", "0.9", "--eta", "inf", "--l-wait", "0", "--schedule", "1,2,2"])
    assert (code, *capsys.readouterr()) == (
        1, "", "error: effective error probability nan is undefined at eta = inf and l_wait = 0\n")


@pytest.mark.parametrize("command", ["pump", "resource"])
def test_a_stage_no_attempt_runs_does_not_fail_the_call(capsys, command):
    # at m2 = 0 no attempt runs p_lv1, so its underflow at F = 0.27 leaves
    # the output of (0, 1, 0) but for the schedule and p_lv1's probability
    outputs = []
    for schedule in ("1200,1,0", "0,1,0"):
        code = main([command, "--F", "0.27", "--pg", "0", "--schedule", schedule])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        outputs.append(json.loads(out))
    unused, bare = outputs
    assert (unused.pop("schedule"), bare.pop("schedule")) == ([1200, 1, 0], [0, 1, 0])
    if command == "pump":
        assert (unused["success_probs"]["p_lv1"], bare["success_probs"]["p_lv1"]) == (0.0, 1.0)
        unused["success_probs"]["p_lv1"] = 1.0
    assert unused == bare


def _subparsers(parser) -> dict:
    """The subcommand parsers of ``parser``, by name."""
    return next(a for a in parser._actions if a.dest == "command").choices


def _subcommand_options() -> dict:
    """Each subcommand's options, as build_parser() defines them."""
    return {name: {a.option_strings[0] for a in p._actions if a.dest != "help"}
            for name, p in _subparsers(build_parser()).items()}


#: one README command line per subcommand (its last one)
README_COMMANDS = {argv[0]: argv for argv in readme_commands()}


# the bytes of `distqc --help` and of each subcommand's --help at an 80-column
# terminal, recorded before the subcommands were stated in one table
PINNED_HELP = {
    (): """\
usage: distqc [-h] [--version]
              {pump,ttg,qvalues,threshold-curve,infidelity-contour,resource,verify}
              ...

Purified-pair fidelities, teleported-gate error tables, fault-tolerance
thresholds and resource overheads.

positional arguments:
  {pump,ttg,qvalues,threshold-curve,infidelity-contour,resource,verify}
    pump                pumped fidelity vector and success probabilities
    ttg                 teleported-gate output error table
    qvalues             topological error-model rates and condition check
    threshold-curve     threshold gate error over a fidelity grid
    infidelity-contour  fixed-infidelity loci in the (F, p) plane
    resource            expected cost per delivered pair and overheads
    verify              run the oracle-equivalence suites

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    ("pump",): """\
usage: distqc pump [-h] [--out OUT] [--F F] [--pg PG] [--pM PM] [--eta ETA]
                   [--l-wait L_WAIT] --schedule SCHEDULE

options:
  -h, --help           show this help message and exit
  --out OUT            output path (default stdout)
  --F F                channel fidelity
  --pg PG              two-qubit gate error probability
  --pM PM              measurement error: 'equal', 'four_fifteenths' or a
                       number
  --eta ETA            memory error rate per step
  --l-wait L_WAIT      waiting steps for memory error
  --schedule SCHEDULE  n1,n2 (single) or n1,m1,m2 (double)
""",
    ("ttg",): """\
usage: distqc ttg [-h] [--out OUT] [--F F] [--pg PG] [--pM PM] [--eta ETA]
                  [--l-wait L_WAIT] --kind {I,II,III} [--fbar FBAR]
                  [--schedule SCHEDULE]

options:
  -h, --help           show this help message and exit
  --out OUT            output path (default stdout)
  --F F                channel fidelity
  --pg PG              two-qubit gate error probability
  --pM PM              measurement error: 'equal', 'four_fifteenths' or a
                       number
  --eta ETA            memory error rate per step
  --l-wait L_WAIT      waiting steps for memory error
  --kind {I,II,III}
  --fbar FBAR          explicit purified vector f0,f1,f2,f3
  --schedule SCHEDULE  pump schedule when --fbar not given
""",
    ("qvalues",): """\
usage: distqc qvalues [-h] [--out OUT] [--F F] [--pg PG] [--pM PM] [--eta ETA]
                      [--l-wait L_WAIT] [--fbar FBAR] [--schedule SCHEDULE]
                      [--margin MARGIN]

options:
  -h, --help           show this help message and exit
  --out OUT            output path (default stdout)
  --F F                channel fidelity
  --pg PG              two-qubit gate error probability
  --pM PM              measurement error: 'equal', 'four_fifteenths' or a
                       number
  --eta ETA            memory error rate per step
  --l-wait L_WAIT      waiting steps for memory error
  --fbar FBAR          explicit purified vector f0,f1,f2,f3
  --schedule SCHEDULE  pump schedule when --fbar not given
  --margin MARGIN
""",
    ("threshold-curve",): """\
usage: distqc threshold-curve [-h] [--out OUT] [--pM PM] --schedule SCHEDULE
                              --grid GRID [--margin MARGIN]

options:
  -h, --help           show this help message and exit
  --out OUT            output path (default stdout)
  --pM PM              measurement error: 'equal', 'four_fifteenths' or a
                       number
  --schedule SCHEDULE
  --grid GRID          F grid start:stop:count
  --margin MARGIN
""",
    ("infidelity-contour",): """\
usage: distqc infidelity-contour [-h] [--out OUT] --schedule SCHEDULE
                                 [--level LEVEL] --grid GRID

options:
  -h, --help           show this help message and exit
  --out OUT            output path (default stdout)
  --schedule SCHEDULE  repeatable: n1,n2 or n1,m1,m2
  --level LEVEL
  --grid GRID          F grid start:stop:count
""",
    ("resource",): """\
usage: distqc resource [-h] [--out OUT] [--F F] [--pg PG] [--pM PM]
                       [--eta ETA] [--l-wait L_WAIT] --schedule SCHEDULE
                       [--count-local-ops] [--mc-trials MC_TRIALS]
                       [--n-bits N_BITS] [--T-per-gate T_PER_GATE]
                       [--seed SEED] [--levels LEVELS] [--grid GRID]

options:
  -h, --help            show this help message and exit
  --out OUT             output path (default stdout)
  --F F                 channel fidelity
  --pg PG               two-qubit gate error probability
  --pM PM               measurement error: 'equal', 'four_fifteenths' or a
                        number
  --eta ETA             memory error rate per step
  --l-wait L_WAIT       waiting steps for memory error
  --schedule SCHEDULE
  --count-local-ops     count gates and measurements in addition to base pairs
  --mc-trials MC_TRIALS
                        cross-check K with this many Monte Carlo trials
  --n-bits N_BITS       factoring size for overhead totals
  --T-per-gate T_PER_GATE
  --seed SEED           seed for the Monte Carlo cross-check
  --levels LEVELS       emit K contours at these levels (CSV)
  --grid GRID           F grid start:stop:count for contours
""",
    ("verify",): """\
usage: distqc verify [-h] [--seed SEED]

options:
  -h, --help   show this help message and exit
  --seed SEED
""",
}


@pytest.mark.parametrize("flag", ["--help", "-h"])
@pytest.mark.parametrize("prefix", list(PINNED_HELP), ids=lambda prefix: " ".join(prefix) or "distqc")
def test_help_is_pinned(capsys, monkeypatch, prefix, flag):
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*prefix, flag]) == 0
    assert capsys.readouterr() == (PINNED_HELP[prefix], "")


@pytest.mark.parametrize("argv", [
    ["resource", "--schedule", "1,2,2", "--level", "30", "--grid", "0.85:0.99:3"],
    ["resource", "--F", "0.9", "--sch", "1,2,2"],
    ["--vers"],
], ids=" ".join)
def test_abbreviated_options_are_refused(capsys, argv):
    # --level is infidelity-contour's option, not an abbreviation of --levels
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def test_repeated_calls_parse_as_fresh_calls(capsys):
    # the subcommand table is built once per process: a call must not see an
    # earlier call's options, such as the --schedule list of this one
    for schedules in (["1,2,2"], ["3,4", "2,2"]):
        argv = ["infidelity-contour", *[a for s in schedules for a in ("--schedule", s)],
                "--level", "1e-3", "--grid", "0.9:0.95:2"]
        assert main(argv) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        fresh = subprocess.run([sys.executable, "-m", "distqc.cli", *argv], env=env,
                               capture_output=True, text=True, check=True)
        assert capsys.readouterr() == (fresh.stdout, fresh.stderr)


def test_every_subcommand_is_named_and_in_the_readme():
    assert tuple(_subparsers(build_parser())) == cli.COMMANDS
    assert set(README_COMMANDS) == set(cli.COMMANDS)


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_a_subcommand_parser_parses_as_the_full_parser(name):
    # build_parser(name) holds only name: the top-level usage, which its
    # errors print, name's help and name's parsed README command stay the same
    full, one = build_parser(), build_parser(name)
    assert one.format_usage() == full.format_usage()
    assert _subparsers(one)[name].format_help() == _subparsers(full)[name].format_help()
    argv = README_COMMANDS[name]
    assert vars(one.parse_args(argv, cli._Args())) == vars(full.parse_args(argv, cli._Args()))


def test_a_call_builds_only_the_subcommand_it_names(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for name, (_, summary, options) in cli.SUBCOMMANDS.items():
        monkeypatch.setitem(cli.SUBCOMMANDS, name, (lambda args: 0, summary, options))
    for argv, parsers in [*[(argv, 2) for argv in README_COMMANDS.values()],
                          (["--help"], 8), (["pmup"], 8), ([], 8)]:
        built.clear()
        main(argv)
        assert len(built) == parsers, argv
    capsys.readouterr()
    # the full parser's own errors name the subcommand argument "command"
    for argv, error in [(["pmup"], "argument command: invalid choice: 'pmup' (choose from"),
                        ([], "the following arguments are required: command")]:
        assert main(argv) == 1
        assert f"distqc: error: {error}" in capsys.readouterr().err
    # the top-level errors a one-subcommand parser prints read as the full parser's
    errors = [["pump", "--F", "0.9", "--schedule", "1,2,2", "extra"],
              ["pump", "--schedule", "1,2,2", "--version"], ["verify", "extra"]]
    printed = [(main(argv), capsys.readouterr()) for argv in errors]
    full = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda called=None: full())
    assert printed == [(main(argv), capsys.readouterr()) for argv in errors]
    usage = "{pump,ttg,qvalues,threshold-curve,infidelity-contour,resource,verify}"
    assert all(code == 1 and usage in err for code, (_, err) in printed)


@pytest.mark.parametrize("argv", [*README_COMMANDS.values(), ["--version"], ["--help"],
                                  ["pump", "--help"], ["pump"], ["pum"], []], ids=" ".join)
def test_main_reads_sys_argv_without_argv(capsys, monkeypatch, argv):
    # the console script calls main() with no arguments
    code = main(argv)
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["distqc", *argv])
    assert main() == code
    assert capsys.readouterr() == expected


_POINT = ["--F", "0.9", "--pg", "1e-3", "--pM", "equal"]
_MEMORY = ["--eta", "1e-4", "--l-wait", "2"]
_FBAR = ["--fbar", "0.97,0.01,0.01,0.01", "--pg", "1e-3", "--pM", "equal", *_MEMORY]
_RESOURCE = ["resource", *_POINT, *_MEMORY, "--schedule", "1,2,2", "--count-local-ops"]

# every mode of every numeric subcommand: the command line that selects it,
# with every option the mode reads, and the options it does not read
REFUSAL_MODES = [
    (["pump", *_POINT, *_MEMORY, "--schedule", "1,2,2"], set()),
    (["pump", *_POINT, "--schedule", "1,2,2"], {"--l-wait"}),
    (["ttg", "--kind", "II", *_POINT, *_MEMORY, "--schedule", "1,2,2"], set()),
    (["ttg", "--kind", "II", *_FBAR], {"--F", "--schedule"}),
    (["qvalues", *_POINT, *_MEMORY, "--schedule", "1,2,2", "--margin", "0.9"], set()),
    (["qvalues", *_FBAR, "--margin", "0.9"], {"--F", "--schedule"}),
    (["threshold-curve", "--pM", "equal", "--schedule", "1,2,2", "--grid", "0.9:1.0:2",
      "--margin", "0.9"], set()),
    (["infidelity-contour", "--schedule", "1,2,2", "--schedule", "3,4", "--level", "1e-3",
      "--grid", "0.9:0.95:2"], set()),
    (_RESOURCE, {"--seed", "--T-per-gate", "--grid"}),
    (["resource", *_POINT, "--schedule", "1,2,2"], {"--l-wait"}),
    ([*_RESOURCE, "--mc-trials", "1000", "--seed", "3"], {"--T-per-gate", "--grid"}),
    ([*_RESOURCE, "--n-bits", "1024", "--T-per-gate", "5"], {"--seed", "--grid"}),
    (["resource", "--schedule", "1,2,2", "--count-local-ops", "--levels", "30",
      "--grid", "0.9:0.95:2"],
     {"--F", "--pg", "--pM", "--eta", "--l-wait", "--mc-trials", "--n-bits", "--T-per-gate",
      "--seed"}),
]
_UNREAD_VALUE = {"--F": "0.5", "--pg": "2e-3", "--pM": "equal", "--eta": "1e-4",
                 "--l-wait": "3", "--schedule": "9,9", "--mc-trials": "100",
                 "--n-bits": "1024", "--T-per-gate": "5", "--seed": "3",
                 "--grid": "0.8:0.9:3"}


def test_refusal_modes_classify_every_option():
    # a new option fails here until some mode of its subcommand reads it or
    # lists it as unread
    classified = {}
    for argv, unread in REFUSAL_MODES:
        given = {a for a in argv if a.startswith("--")}
        assert not given & unread
        classified.setdefault(argv[0], {"--out"}).update(given | unread)
    options = _subcommand_options()
    del options["verify"]
    assert classified == options


@pytest.mark.parametrize("argv", [argv for argv, _ in REFUSAL_MODES], ids=" ".join)
def test_every_option_a_mode_reads_is_accepted(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert out.stat().st_size > 0


@pytest.mark.parametrize("argv, option", [
    (argv, option) for argv, unread in REFUSAL_MODES for option in sorted(unread)
], ids=lambda x: x if isinstance(x, str) else " ".join(x))
def test_every_option_a_mode_does_not_read_is_refused(tmp_path, capsys, argv, option):
    out = tmp_path / "out"
    code = main([*argv, option, _UNREAD_VALUE[option], "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and option in captured.err
