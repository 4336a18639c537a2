import json
import time

import numpy as np
import pytest

from distqc.cli import main


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
])
def test_unread_options_are_refused(capsys, argv):
    # only resource --mc-trials reads --seed, only resource --n-bits reads
    # --T-per-gate; elsewhere either would be dropped unread
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert argv[-2] in captured.err
