"""Tests of the benchmark itself; run from the root of a checkout with

    python3 -m pytest perfbench -q
"""

import json

import pytest

import checks
import run
import speed
import workloads


def counters(workload, seed):
    result = run.run_worker(workload, seed, seconds=0, trace=False, reference=None)
    assert result["correct"], result["failures"]
    return result["counters"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_for_one_seed_and_change_with_it(workload):
    first = counters(workload, 7)
    assert first == counters(workload, 7)
    assert first != counters(workload, 8)


def test_streams_are_seeded():
    ops = [workloads.operation("point_queries", 5, i) for i in range(8)]
    assert ops == [workloads.operation("point_queries", 5, i) for i in range(8)]
    assert ops != [workloads.operation("point_queries", 6, i) for i in range(8)]


def test_reference_covers_the_default_stream():
    with open(run.HERE / "reference.json") as fh:
        ref = json.load(fh)
    assert ref["seed"] == run.DEFAULT_SEED
    for workload, entries in ref["workloads"].items():
        for i, entry in enumerate(entries):
            op = workloads.operation(workload, run.DEFAULT_SEED, i)
            assert entry["argv"] == " ".join(op["argv"])


PUMP_OUT = json.dumps({"f_bar": [0.99, 0.004, 0.003, 0.003], "infidelity": 0.01,
                       "success_probs": {"p_lv1": 0.9, "p_lv2": 0.8},
                       "attempt_base_pairs": 15})


def test_checks_accept_a_valid_pump_output():
    op = {"kind": "pump", "schedule": "2,4"}
    assert checks.extract(op, PUMP_OUT)["f_bar"][0] == 0.99


@pytest.mark.parametrize("field,value", [("f_bar", [0.99, 0.004, 0.003, 0.004]),
                                         ("attempt_base_pairs", 14),
                                         ("success_probs", {"p_lv1": 1.2})])
def test_checks_reject_a_broken_pump_output(field, value):
    payload = json.loads(PUMP_OUT)
    payload[field] = value
    with pytest.raises(checks.CheckFailure):
        checks.extract({"kind": "pump", "schedule": "2,4"}, json.dumps(payload))


def test_reference_comparison_tolerates_bisection_noise_only():
    ref = {"rows": [[0.9, 0.0026087]]}
    near = {"rows": [[0.9, 0.0026087 * (1 + 5e-5)]]}
    far = {"rows": [[0.9, 0.0026087 * (1 + 5e-4)]]}
    checks.compare("threshold-curve", near, ref)
    with pytest.raises(checks.CheckFailure):
        checks.compare("threshold-curve", far, ref)
    K = {"K": 35.87421770752779}
    checks.compare("resource", dict(K), K)
    with pytest.raises(checks.CheckFailure):
        checks.compare("resource", {"K": K["K"] * (1 + 1e-9)}, K)


def test_known_defects_are_matched_narrowly():
    crash = "TypeError: Object of type bool is not JSON serializable"
    assert checks.known_defect("qvalues", crash) == "qvalues-non-ft"
    assert checks.known_defect("pump", crash) is None
    assert checks.known_defect("probe", "deadline") == "mc-probe-deadline"
    assert checks.known_defect("resource", "deadline") is None


def test_defect_probes_stay_out_of_the_timed_stream():
    probes = workloads.defect_probes("point_queries", 3)
    assert [p["argv"] for p in probes[:2]] == [list(a) for a in workloads.QVALUES_EXAMPLES]
    assert probes == workloads.defect_probes("point_queries", 3)
    assert probes != workloads.defect_probes("point_queries", 4)
    assert workloads.defect_probes("threshold_sweep", 3) == []
    for i in range(1, 400):
        op = workloads.operation("point_queries", 3, i)
        if op["kind"] == "qvalues":
            F, pg = float(op["argv"][2]), float(op["argv"][4])
            assert 0.85 <= F <= 1.0 and 1e-4 <= pg <= 7e-4 * (1 + 1e-6)


def test_speed_factor_uses_the_samples_near_a_time():
    tracker = speed.Tracker()
    tracker.at = [0.0, 0.5, 1.0, 5.0, 5.5]
    tracker.loop = [speed.REF_LOOP_S] * 3 + [2 * speed.REF_LOOP_S] * 2
    assert tracker.factor(0.6) == 1.0
    assert tracker.factor(5.2) == 0.5
    assert tracker.factor(3.0) == 1.0  # no sample within the window: all of them


def test_checks_hold_contour_rows_to_the_request():
    op = {"kind": "resource-contour", "grid": "0.85:0.99:2", "levels": [30.0, 60.0]}
    head = "# distqc 0 resource levels=30,60 grid=0.85:0.99:2\nK,F,p_g\n"
    assert len(checks.extract(op, head + "30,0.85,0.001\n60,0.99,0.002\n")["rows"]) == 2
    for bad in ("45,0.85,0.001\n", "30,0.9,0.001\n", "30,0.85,0.07\n"):
        with pytest.raises(checks.CheckFailure):
            checks.extract(op, head + bad)
