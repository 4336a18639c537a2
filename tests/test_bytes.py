"""tools/bytes.py: its comparison of two trees' results, call by call, on
synthetic results, and its capture of one call's exit code and output."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bytes_tool", ROOT / "tools" / "bytes.py")
bytes_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bytes_tool)

CALLS = [{"id": "a", "argv": ["pump", "--F", "0.9"]}, {"id": "b", "demo": "x.py"}, {"id": "c", "argv": ["verify"]}]


def result(code=0, stdout="one\ntwo\n", stderr=""):
    return {"code": code, "stdout": stdout, "stderr": stderr}


def test_equal_results_differ_nowhere():
    same = [result(), result(stdout=""), result(2, "", "FAIL\n")]
    assert bytes_tool.compare(CALLS, same, [dict(r) for r in same]) == ([], 0)


@pytest.mark.parametrize("new, diff", [
    (result(code=1), "exit code 0 != 1"),
    (result(stdout="one\nTwo\n"), "stdout line 2: 'two\\n' != 'Two\\n'"),
    (result(stdout="one\ntwo"), "stdout line 2: 'two\\n' != 'two'"),
    (result(stdout="one\ntwo\nthree\n"), "stdout line 3: '<end>' != 'three\\n'"),
    (result(stderr="warning\n"), "stderr line 1: '<end>' != 'warning\\n'"),
    (result(code=1, stdout=""), "exit code 0 != 1"),
])
def test_a_differing_call_reports_its_first_differing_line(new, diff):
    old = [result(), result(), result()]
    lines, unexpected = bytes_tool.compare(CALLS, old, [result(), new, result()])
    assert lines == [f"DIFFERS  b x.py\n    {diff}"]
    assert unexpected == 1


def test_an_expected_difference_is_reported_but_not_counted():
    old, new = [result()] * 3, [result(code=1), result(), result(stdout="")]
    lines, unexpected = bytes_tool.compare(CALLS, old, new, {"a", "b"})
    assert [line.split("\n")[0] for line in lines] == ["expected  a pump --F 0.9", "DIFFERS  c verify"]
    assert unexpected == 1


def test_a_missing_result_is_refused():
    with pytest.raises(ValueError, match="3 calls but 3 and 2 results"):
        bytes_tool.compare(CALLS, [result()] * 3, [result()] * 2)


def test_the_call_set_names_each_call_once():
    calls = bytes_tool.call_set()
    ids = [call["id"] for call in calls]
    assert len(ids) == len(set(ids))
    assert sum(i.endswith("/op39") for i in ids) == 3 * len(bytes_tool.SEEDS)
    assert {"readme/0", "verify/seed5"} <= set(ids)
    assert [i for i in ids if i.startswith("memory/")] == [f"memory/{i}" for i in range(5)]


def test_a_call_records_its_code_and_output(tmp_path):
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "fails.py").write_text("print('partial')\nraise RuntimeError('no')\n")
    calls = [{"id": "bad", "argv": ["pump", "--F", "0.9"]}, {"id": "demo", "demo": "fails.py"}]
    bad, demo = bytes_tool.run_calls(tmp_path, calls)
    assert bad["code"] == 1 and bad["stdout"] == ""
    assert "the following arguments are required: --schedule" in bad["stderr"]
    assert demo == result("exception", "partial\n", "RuntimeError: no\n")
