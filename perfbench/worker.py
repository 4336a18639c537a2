"""Runs one workload in a process of its own and reports on stdout.

Reads a job (JSON) from stdin, written by ``run.py``.  The process:

1. runs the workload's defect probes (``workloads.defect_probes``), apart
   from the stream;
2. runs the first ``count_ops`` operations of the stream with counting
   wrappers installed; these are the warm-up, and the work counts they yield
   depend only on the seed;
3. times the following operations, one ``distqc.cli.main`` call each, for
   ``seconds`` and at least ``min_samples`` operations, timing the
   calibration loop (``speed.py``) between them so that each time can be
   read in reference seconds.  With ``trace`` set each operation instead runs
   twice, untraced and traced, back to back in alternating order, so the two
   medians compare the same operations;
4. prints one JSON line with the timings, counts, failures, probe outcomes
   and its own peak resident memory.

Every operation's output is checked (see ``checks.py``).
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from distqc import cli  # noqa: E402

#: an in-process operation running longer than this is stopped and failed
OP_DEADLINE_S = 10.0


class DeadlineExceeded(BaseException):
    """Raised in an operation that ran past OP_DEADLINE_S."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def run_op(i: int, op: dict, outcomes: checks.Outcomes, rec: spans.Recorder | None = None) -> float:
    """Run operation ``i`` once and record its outcome; returns its wall time."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = rec.run_op(i, cli.main, op["argv"]) if rec else cli.main(op["argv"])
            except DeadlineExceeded:
                error = "deadline"
            except Exception as exc:  # a crash is this operation's outcome
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    outcomes.record(i, op, rc, out.getvalue(), err.getvalue(), error)
    return elapsed


def main() -> int:
    job = json.load(sys.stdin)
    workload, seed = job["workload"], job["seed"]
    signal.signal(signal.SIGALRM, _on_alarm)
    outcomes = checks.Outcomes(job.get("reference"))

    def op(i):
        return workloads.operation(workload, seed, i)

    probes = checks.Outcomes(None)
    for o in workloads.defect_probes(workload, seed):
        run_op(None, o, probes)

    counting = spans.Recorder(keep_spans=False)
    before = spans.map_cache_info()
    with spans.instrumented(counting):
        for i in range(job["count_ops"]):
            run_op(i, op(i), outcomes, counting)
    counts = spans.counters(counting, before, spans.map_cache_info())
    counts["resources.points"] = sum(workloads.cost_points(op(i)) for i in range(job["count_ops"]))

    traced = spans.Recorder(keep_spans=True) if job["trace"] else None
    times, traced_times, ref_times = [], [], []
    tracker = speed.Tracker()
    seconds, min_samples = job["seconds"], job["min_samples"]
    i = job["count_ops"]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < min_samples:
        if time.perf_counter() - start >= 2 * seconds:
            break
        tracker.sample()
        o = op(i)
        if traced is None:
            times.append(run_op(i, o, outcomes))
            ref_times.append((time.perf_counter(), times[-1]))
        else:
            for run_traced in ((False, True) if i % 2 else (True, False)):
                if run_traced:
                    with spans.instrumented(traced):
                        traced_times.append(run_op(i, o, outcomes, traced))
                else:
                    times.append(run_op(i, o, outcomes))
        i += 1
    tracker.sample(force=True)
    ref_times = [t * tracker.factor(at) for at, t in ref_times]

    result = {
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "correct": outcomes.correct,
        "failures": outcomes.failures,
        "counters": counts,
        "times": times,
        "ref_times": ref_times,
        "probes": {"attempted": probes.attempted, "correct": probes.correct,
                   "failures": probes.failures},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced is not None:
        result["layers"] = spans.layer_metrics(traced, counts, traced_times, times)
        with gzip.open(job["spans_path"], "wt") as fh:
            for span in traced.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
