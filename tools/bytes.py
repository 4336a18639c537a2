"""Byte contract: the CLI output of this tree against that of a git revision.

Extracts REV with ``git archive`` into a temporary directory, then runs one
fixed call set against each tree, the working tree and REV's, each in its own
subprocess with ``PYTHONPATH=<tree>/src``, ``-W error`` and a fresh working
directory.  The call set:

- operations 0-39 of every benchmark workload at seeds 1-3
  (``perfbench/workloads.py``), and the ``point_queries`` defect probes;
- every ``distqc`` command line of the README;
- the memory-error path: ``--eta`` with ``--l-wait`` on each point
  subcommand, and ``--eta`` alone, which is refused;
- the demos, each tree its own, through ``runpy``;
- ``verify --seed 0`` to ``--seed 5``.

A command line runs through ``distqc.cli.main`` in process.  Each call's
exit code, stdout and stderr are compared, and the first differing line of
each call that differs is printed.  Standard library only.

    python tools/bytes.py --against HEAD [--expect FILE]

FILE names the calls expected to differ, one call id (the first word of
its label) a line; ``#`` starts a comment.  The run exits 1 if any other
call differs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import runpy
import shlex
import subprocess
import sys
import tarfile
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
OPS = 40
VERIFY_SEEDS = range(6)
_MEMORY = ["--F", "0.9", "--pg", "1e-3", "--eta", "2e-4", "--l-wait", "3", "--schedule", "1,2,2"]
MEMORY = [["pump", *_MEMORY], ["qvalues", *_MEMORY], ["ttg", "--kind", "II", *_MEMORY],
          ["resource", *_MEMORY, "--n-bits", "1024"], ["pump", "--schedule", "1,2,2", "--eta", "2e-4"]]


def call_set(root: Path = ROOT) -> list[dict]:
    """The calls both trees run: each an ``id``, and an ``argv`` for
    ``distqc`` or the file name of a ``demo``."""
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    calls = [{"id": f"{w}/seed{s}/op{i}", "argv": workloads.operation(w, s, i)["argv"]}
             for w in workloads.WORKLOADS for s in SEEDS for i in range(OPS)]
    calls += [{"id": f"probe/seed{s}/{i}", "argv": op["argv"]}
              for s in SEEDS for i, op in enumerate(workloads.defect_probes("point_queries", s))]
    text = (root / "README.md").read_text().replace("\\\n", " ")
    readme = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("distqc ")]
    calls += [{"id": f"readme/{i}", "argv": argv} for i, argv in enumerate(readme)]
    calls += [{"id": f"memory/{i}", "argv": argv} for i, argv in enumerate(MEMORY)]
    calls += [{"id": f"demo/{path.stem}", "demo": path.name} for path in sorted((root / "demos").glob("*.py"))]
    calls += [{"id": f"verify/seed{s}", "argv": ["verify", "--seed", str(s)]} for s in VERIFY_SEEDS]
    return calls


def label(call: dict) -> str:
    return f"{call['id']} " + (shlex.join(call["argv"]) if "argv" in call else call["demo"])


def run_calls(tree: Path, calls: list[dict]) -> list[dict]:
    """Run every call in this process against the ``distqc`` on the path:
    its exit code, stdout and stderr.  An exception ends its call with the
    exception's last traceback line on stderr and code "exception"."""
    from distqc.cli import main

    results = []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if "argv" in call:
                    code = main(list(call["argv"]))
                else:
                    runpy.run_path(str(tree / "demos" / call["demo"]), run_name="__main__")
                    code = 0
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is an output; its frames name the tree's paths, so keep the last line
                code = "exception"
                err.write(traceback.format_exc().splitlines()[-1] + "\n")
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


def first_difference(old: dict, new: dict) -> str | None:
    """The first differing line of two results of one call, or None."""
    if old["code"] != new["code"]:
        return f"exit code {old['code']!r} != {new['code']!r}"
    for stream in ("stdout", "stderr"):
        a, b = old[stream].splitlines(keepends=True), new[stream].splitlines(keepends=True)
        for i in range(max(len(a), len(b))):
            x, y = (a[i] if i < len(a) else "<end>"), (b[i] if i < len(b) else "<end>")
            if x != y:
                return f"{stream} line {i + 1}: {x!r} != {y!r}"
    return None


def compare(calls: list[dict], old: list[dict], new: list[dict], expect=frozenset()) -> tuple[list[str], int]:
    """Report lines of every call whose results differ, and the number of
    differing calls whose id ``expect`` does not name."""
    if not len(calls) == len(old) == len(new):
        raise ValueError(f"{len(calls)} calls but {len(old)} and {len(new)} results")
    lines, unexpected = [], 0
    for call, a, b in zip(calls, old, new):
        diff = first_difference(a, b)
        if diff is None:
            continue
        expected = call["id"] in expect
        unexpected += not expected
        lines.append(f"{'expected' if expected else 'DIFFERS'}  {label(call)}\n    {diff}")
    return lines, unexpected


def run_tree(tree: Path, calls_file: Path, work: Path) -> subprocess.Popen:
    """Start a child that runs the call set against ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    work.mkdir()
    return subprocess.Popen(
        [sys.executable, "-W", "error", str(Path(__file__).resolve()), "--run", str(tree), str(calls_file)],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def child(tree: Path, calls_file: Path) -> int:
    import distqc

    if not Path(distqc.__file__).resolve().is_relative_to(tree.resolve()):
        print(f"distqc imports from {distqc.__file__}, not from {tree}", file=sys.stderr)
        return 1
    results = run_calls(tree, json.loads(calls_file.read_text()))
    sys.__stdout__.write(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="git revision whose output this tree's must equal")
    parser.add_argument("--expect", type=Path, help="file of call ids expected to differ")
    parser.add_argument("--run", nargs=2, type=Path, help=argparse.SUPPRESS)  # the child: TREE CALLS
    args = parser.parse_args(argv)
    if args.run:
        return child(*args.run)
    if not args.against:
        parser.error("--against is required")
    expect = set()
    if args.expect:
        expect = {line.split("#")[0].strip() for line in args.expect.read_text().splitlines()} - {""}
    calls = call_set()
    with tempfile.TemporaryDirectory(prefix="bytes-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.against],
                                 capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(), end="", file=sys.stderr)
            return 1
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        (tmp / "calls.json").write_text(json.dumps(calls))
        children = [run_tree(tree, tmp / "calls.json", tmp / name)
                    for name, tree in (("rev-cwd", tmp / "rev"), ("work-cwd", ROOT))]
        results = []
        for proc, name in zip(children, (args.against, "working tree")):
            out, err = proc.communicate()
            if proc.returncode:
                print(f"the call set failed on {name}:\n{err}", file=sys.stderr)
                return 1
            results.append(json.loads(out))
    lines, unexpected = compare(calls, *results, expect)
    for line in lines:
        print(line)
    print(f"{len(calls)} calls: {len(lines)} differ, {unexpected} not expected "
          f"(working tree against {args.against})")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
