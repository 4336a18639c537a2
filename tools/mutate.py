"""Operator mutation testing for one module of distqc.

Swaps one comparison or arithmetic operator at a time in a temporary copy of
the repository and runs the module's test files against each mutant, one
mutant at a time, with ``-x``, a fixed hypothesis seed and a 60 s timeout
(a timeout counts as killed).  A mutant the tests pass survives.  Standard
library only.

    python tools/mutate.py src/distqc/threshold.py [tests/test_threshold.py ...]

Without test files it runs ``tests/test_<module>.py``.  A survivor listed in
EQUIVALENT is reported with its reason; the run exits 1 if any other mutant
survives, or if the tests fail before any mutation.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 60

COMPARE = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}
ARITH = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
         ast.Mod: "%", ast.Pow: "**"}
#: each operator and the one mutant it is swapped for
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "*": "/", "/": "*", "//": "/", "%": "//", "**": "*"}
SWAPS.update({f"{op}=": f"{new}=" for op, new in list(SWAPS.items()) if op in ARITH.values()})

#: survivors no test can kill, keyed by (module file, the stripped source
#: line, "operator -> mutant"); a key covers every such swap on its line
EQUIVALENT = {
    ("threshold.py", "lambda lo, hi: np.sqrt(lo * hi), lambda lo, hi: hi - lo > rel_tol * lo, first_fail=False,",
     "> -> >="):
        "the threshold bisection stops one step later only where the bracket width equals "
        "rel_tol * lo exactly; the point still lies within rel_tol of the crossing",
    ("threshold.py", "lambda lo, hi: 0.5 * (lo + hi), lambda lo, hi: hi - lo > REL_TOL * hi, first_fail=True,",
     "> -> >="):
        "the contour bisection stops one step later only where the bracket width equals "
        "REL_TOL * hi exactly; the point still lies within REL_TOL of the crossing",
    ("threshold.py", "x = np.where((l < x) & (x < h), x, l + (h - l) * (v_l / (v_l - v_h)))  # else regula falsi",
     "< -> <="):
        "the interpolant lands on a bracket end only where the value there is 0 or the crossing "
        "rounds onto it, and regula falsi then predicts that end too, so the predicted path is the same",
    ("resources.py", "passed = sum(int((rng.random((min(rows, alive - b), rounds)) < chain).all(axis=1).sum())",
     "< -> <="):
        "Generator.random draws from [0, 1) on a grid of 2**-53; the two differ only on a draw "
        "equal to a round's conditional success probability, an event of probability 2**-53 at most",
    ("purify.py", "flips = rng.random((n_samples, 2)) < noise.p_M", "< -> <="):
        "Generator.random draws from [0, 1) on a grid of 2**-53; the two differ only on a draw "
        "equal to p_M, an event of probability 2**-53 at most",
    ("purify.py", "flips = rng.random((n_samples, 4)) < noise.p_M", "< -> <="):
        "Generator.random draws from [0, 1) on a grid of 2**-53; the two differ only on a draw "
        "equal to p_M, an event of probability 2**-53 at most",
    ("pauli.py", '_refuse(abs(f.sum() - 1.0) <= ATOL, f.sum(), "fidelity vector must sum to 1, got {!r}")', "<= -> <"):
        "a float sum near 1 differs from 1 by a multiple of 2**-53, never by exactly ATOL = 1e-12",
    ("pauli.py", '_refuse(abs(sums - 1.0) <= ATOL, sums, "p_table must sum to 1, got {!r}")', "<= -> <"):
        "a point's float sum near 1 differs from 1 by a multiple of 2**-53, never by exactly ATOL = 1e-12",
}


def sites(source: str):
    """(row, col, operator) of every comparison and arithmetic operator in
    ``source``, with row and col the token's start (1-based row, character
    column); operators inside f-strings are left alone."""
    lines = source.splitlines(keepends=True)
    ops = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type == tokenize.OP]

    def char_col(row, col):  # ast columns count UTF-8 bytes
        return len(lines[row - 1].encode()[:col].decode())

    def between(left, right, symbol):
        start = (left.end_lineno, char_col(left.end_lineno, left.end_col_offset))
        end = (right.lineno, char_col(right.lineno, right.col_offset))
        return next(t.start for t in ops if t.string == symbol and start <= t.start and t.end <= end)

    tree = ast.parse(source)
    skip = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            found += [(*between(operands[i], operands[i + 1], COMPARE[type(op)]), COMPARE[type(op)])
                      for i, op in enumerate(node.ops) if type(op) in COMPARE]
        elif isinstance(node, ast.BinOp) and type(node.op) in ARITH:
            found.append((*between(node.left, node.right, ARITH[type(node.op)]), ARITH[type(node.op)]))
        elif isinstance(node, ast.AugAssign) and type(node.op) in ARITH:
            symbol = ARITH[type(node.op)] + "="
            found.append((*between(node.target, node.value, symbol), symbol))
    return sorted(found)


def run_tests(copy: Path, tests) -> bool | None:
    """Whether the tests pass in ``copy``; None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(TIMEOUT_S) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", type=Path, help="source file, e.g. src/distqc/threshold.py")
    parser.add_argument("tests", nargs="*", help="test files (default tests/test_<module>.py)")
    args = parser.parse_args(argv)
    module = args.module.resolve().relative_to(ROOT)
    tests = args.tests or [f"tests/test_{module.stem}.py"]
    source = (ROOT / module).read_text()
    lines = source.splitlines(keepends=True)
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "demos"):  # the tests also run the demos and the README's commands
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for part in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / part, copy)
        if not run_tests(copy, tests):
            print(f"the tests do not pass on the unmutated {module}", file=sys.stderr)
            return 1
        counts = {"killed": 0, "timeout": 0, "equivalent": 0, "survived": 0}
        for row, col, op in sites(source):
            new = SWAPS[op]
            line = lines[row - 1]
            mutant = lines[:row - 1] + [line[:col] + new + line[col + len(op):]] + lines[row:]
            (copy / module).write_text("".join(mutant))
            passed = run_tests(copy, tests)
            key = (module.name, line.strip(), f"{op} -> {new}")
            outcome = ("timeout" if passed is None else "killed" if not passed
                       else "equivalent" if key in EQUIVALENT else "survived")
            counts[outcome] += 1
            reason = f"  ({EQUIVALENT[key]})" if outcome == "equivalent" else ""
            print(f"{outcome:10} {module.name}:{row}:{col + 1}  {op} -> {new}  {line.strip()}{reason}", flush=True)
    print(f"{module}: {sum(counts.values())} mutants, " + ", ".join(f"{v} {k}" for k, v in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
