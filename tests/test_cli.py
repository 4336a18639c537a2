import json
import re
import time
import warnings

import numpy as np
import pytest

from distqc import cli, telegate
from distqc.cli import MAX_GRID, build_parser, main


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


def test_verify_passes(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 5


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
    assert out.count("PASS") == 4


def test_ttg_maps_a_table_mismatch_to_exit_two(capsys, monkeypatch):
    monkeypatch.setitem(telegate._LAYOUTS, telegate.GateKind.I, WRONG_FRAME)
    code = main(["ttg", "--kind", "I", "--F", "0.9"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("internal discrepancy: kind I: circuit table deviates")


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
  "p_g": 0.0010000000000000009,
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
  "p_g": 0.0020000000000000018,
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
  "p_g": 0.0010000000000000009,
  "schedule": [
    2,
    4,
    8
  ],
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
])
def test_malformed_grid_is_refused(capsys, grid, err):
    code = main(["threshold-curve", "--schedule", "2,4", "--grid", grid])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == err


def test_schedule_beyond_the_round_cap_is_refused(capsys):
    start = time.perf_counter()
    code = main(["pump", "--F", "0.999", "--pg", "1e-6", "--schedule", "1,300000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "MAX_ROUNDS = 10000" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("count", [MAX_GRID + 1, 10**9], ids=["cap + 1", "a billion"])
@pytest.mark.parametrize("command", [
    ["threshold-curve", "--schedule", "2,4"],
    ["infidelity-contour", "--schedule", "2,4", "--level", "1e-3"],
    ["resource", "--schedule", "1,2,2", "--levels", "30"],
], ids=["threshold-curve", "infidelity-contour", "resource"])
def test_grid_beyond_its_cap_is_refused(capsys, command, count):
    # the count is refused before a grid point is built
    start = time.perf_counter()
    code = main([*command, "--grid", f"0.7:1.0:{count}"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: grid count {count} exceeds MAX_GRID = 100000 points\n"
    assert elapsed < 1.0


def test_cost_contour_lanes_beyond_the_grid_cap_are_refused(capsys, monkeypatch):
    # each level x grid point is one lane of search state; the product is
    # capped like a grid and refused before any lane is built
    def no_lanes(*_):
        raise AssertionError("lanes were built")

    monkeypatch.setattr(cli, "MAX_GRID", 4)
    monkeypatch.setattr(cli, "contour_expected_cost", no_lanes)
    code = main(["resource", "--schedule", "1,2,2", "--levels", "1,2,3", "--grid", "0.9:0.95:2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
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


def _subcommand_options() -> dict:
    """Each subcommand's options, as build_parser() defines them."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {name: {a.option_strings[0] for a in p._actions if a.dest != "help"}
            for name, p in sub.choices.items()}


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
