"""Benchmark of the distqc command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload threshold_sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One run drives ``distqc.cli.main(argv)`` in-process, so argument parsing, the
library and output formatting all run, with a single caller in a closed loop
(the next call starts when the previous one returned).  The run happens in a
child process of its own (``worker.py``), whose peak resident memory is the
workload's.  The parent then times fresh interpreters that import
``distqc.cli`` and complete the workload's first operation (``setup_s``).
Every operation's output is checked (``checks.py``).

The known defects are reached by defect probes that run once per
``point_queries`` run, apart from the timed stream and outside
``attempted`` and ``failed``: qvalues calls at non-fault-tolerant points,
and the non-terminating Monte Carlo probe under a deadline.  The result
file and the table list which defects they reproduced; a probe that fails
in any other way, or returns a wrong output, makes the run incorrect.

End-to-end metrics (``--trace 0``): ``setup_s``, ``op_s.p50`` and
``op_s.p90`` (one call), ``ops_per_s`` (timed calls per second of their
summed time), ``ok_frac`` (1 - failed/attempted; ``failed_frac`` itself is
in the table and the result file) and ``peak_rss_mb``.  Times are in
reference seconds (``speed.py``): each wall time is scaled by the speed of
the machine at the moment it was taken, measured with a calibration loop
between operations and with a calibration launch around each set-up
launch, so that a run on a shared host measures the program and not its
neighbours.  The raw wall-time figures are in the result file.  ``--trace 1``
runs every timed operation both untraced and traced and reports the
per-layer metrics (``spans.py``), including the tracing overhead.  Which
per-layer metric should move which end-to-end metric on which workload is in
``layers.json``; the figures measured at the commit that introduced the
benchmark are in ``baseline.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A readable table
goes to standard error, and the full result, with machine and version
details, to ``perfbench/out/``.  The benchmark's own tests:
``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
#: operations run with counting wrappers before timing starts (warm-up);
#: all work counts are taken over these, so they depend only on the seed
COUNT_OPS = {"threshold_sweep": 6, "contour_sweep": 6, "point_queries": 40}
MIN_SAMPLES = 100       # timed operations per run, so ten lie beyond op_s.p90
MIN_TRACED_PAIRS = 30
SETUP_LAUNCHES = 5
PROBE_DEADLINE_S = 3.0
LAUNCH_TIMEOUT_S = 15.0
FIRST_OP = "import sys; sys.path.insert(0, 'src'); from distqc.cli import main; sys.exit(main(sys.argv[1:]))"


def _quantile(values, q: int) -> float:
    """The q-th percentile (q in 10..90, step 10)."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def _environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                                ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "seed": seed}


def _launch(argv: list[str], timeout: float):
    """Run one CLI call in a fresh interpreter; returns (seconds, exit code,
    stdout, stderr, error), error being "deadline" if the child had to be
    killed."""
    start = time.perf_counter()
    try:
        p = subprocess.run([sys.executable, "-c", FIRST_OP, *argv], cwd=ROOT,
                           capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, "", "", "deadline"
    return time.perf_counter() - start, p.returncode, p.stdout, p.stderr, None


def run_worker(workload: str, seed: int, seconds: float, trace: bool, reference) -> dict:
    """Run the workload's operations in a child process (``worker.py``)."""
    job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "count_ops": COUNT_OPS[workload],
           "reference": reference,
           "min_samples": MIN_TRACED_PAIRS if trace else MIN_SAMPLES,
           "spans_path": str(OUT_DIR / f"{workload}-s{seed}-spans.jsonl.gz")}
    child = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                           capture_output=True, text=True, timeout=2 * seconds + 30)
    if child.returncode != 0:
        raise RuntimeError(f"worker failed ({child.returncode}):\n{child.stderr}")
    return json.loads(child.stdout.strip().split("\n")[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "distqc" / "cli.py").is_file():
        raise FileNotFoundError(f"no distqc sources under {ROOT / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    reference = None
    if seed == DEFAULT_SEED:
        with open(HERE / "reference.json") as fh:
            reference = json.load(fh)["workloads"][workload]
    result = run_worker(workload, seed, seconds, trace, reference)

    launched = checks.Outcomes(reference)
    first = workloads.operation(workload, seed, 0)
    setup, setup_ref, calibration = [], [], [speed.launch_s()]
    for _ in range(SETUP_LAUNCHES):
        seconds_taken, *outcome = _launch(first["argv"], LAUNCH_TIMEOUT_S)
        calibration.append(speed.launch_s())
        setup.append(seconds_taken)
        setup_ref.append(seconds_taken * 2 * speed.REF_LAUNCH_S / sum(calibration[-2:]))
        launched.record(0, first, *outcome)
    probes = result["probes"]
    if workload == "point_queries":
        mc_probe = checks.Outcomes(None)
        _, *outcome = _launch(workloads.MC_PROBE["argv"], PROBE_DEADLINE_S)
        mc_probe.record(None, workloads.MC_PROBE, *outcome)
        probes = {"attempted": probes["attempted"] + 1,
                  "correct": probes["correct"] and mc_probe.correct,
                  "failures": probes["failures"] + mc_probe.failures}

    attempted = result["attempted"] + launched.attempted
    failed = result["failed"] + launched.failed
    times = result["ref_times"] or result["times"]
    raw = result["times"]

    def figures(times, setup):
        return {
            "setup_s": statistics.median(setup),
            "op_s.p50": statistics.median(times),
            "op_s.p90": _quantile(times, 90),
            "ops_per_s": len(times) / sum(times),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }

    summary = {
        "workload": workload, "trace": trace, "seconds": seconds,
        "environment": _environment(seed),
        "correct": result["correct"] and launched.correct and probes["correct"],
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "timed_ops": len(times), "setup_launches_s": setup, "calibration_launches_s": calibration,
        "metrics": figures(times, setup_ref), "wall_time_metrics": figures(raw, setup),
        "layers": result.get("layers"), "counters": result["counters"],
        "failures": result["failures"] + launched.failures,
        "defect_probes": {
            "attempted": probes["attempted"],
            "reproduced": dict(Counter(f["known_defect"] for f in probes["failures"])),
            "failures": probes["failures"],
        },
    }
    with open(OUT_DIR / f"{workload}-s{seed}-t{int(trace)}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return summary


END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("op_s.p90", "s"), ("ops_per_s", "1/s"),
              ("ok_frac", "ratio"), ("peak_rss_mb", "MB"))


def _table(summary: dict) -> str:
    m = summary["metrics"]
    lines = [f"{summary['workload']}: {summary['timed_ops']} timed ops, "
             f"{summary['attempted']} attempted, {summary['failed']} failed, "
             f"correct={summary['correct']}"]
    lines += [f"  {name:<12} {m[name]:>12.6g} {unit}" for name, unit in END_TO_END]
    lines.append(f"  {'failed_frac':<12} {summary['failed_frac']:>12.6g} ratio")
    for name, value in sorted((summary["layers"] or {}).items()):
        lines.append(f"  {name:<28} {value:>12.6g}")
    for defect, count in sorted(summary["defect_probes"]["reproduced"].items()):
        lines.append(f"  defect probes reproduced {defect or 'unexpected failure'}: {count} of "
                     f"{summary['defect_probes']['attempted']}")
    for f in summary["failures"][:3]:
        lines.append(f"  failure: {' '.join(f['argv'])}: {f['reason'][:120]}"
                     f" [{f['known_defect'] or 'unexpected'}]")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for s in summaries:
        print(_table(s), file=sys.stderr)
    key = "layers" if args.trace else "metrics"
    if args.trace:
        with open(HERE / "layers.json") as fh:
            units = {k: v["unit"] for k, v in json.load(fh)["metrics"].items()}
    else:
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {(name if len(names) == 1 else f"{s['workload']}/{name}"):
                    {"value": value, "unit": units[name]}
                    for s in summaries for name, value in s[key].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
