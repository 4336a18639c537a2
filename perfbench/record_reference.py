"""Writes reference.json: the checked values of the first operations of
every workload under the default seed.

The benchmark compares later runs with these values (see ``checks.py``), so
run this only at a commit whose outputs are the reference.  It was run at
the commit that introduced the benchmark, from the root of the checkout::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import checks
import workloads
from run import DEFAULT_SEED, HERE

from distqc import cli

#: operations recorded per workload; each kind of operation is covered
RECORDED = {"threshold_sweep": 60, "contour_sweep": 60, "point_queries": 200}


def record(workload: str) -> list[dict]:
    entries = []
    for i in range(RECORDED[workload]):
        op = workloads.operation(workload, DEFAULT_SEED, i)
        out = io.StringIO()
        values = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(op["argv"])
        except TypeError:  # the qvalues defect: such an operation has no reference
            rc = None
        if rc == 0:
            values = checks.extract(op, out.getvalue())
        entries.append({"argv": " ".join(op["argv"]), "values": values})
    return entries


def main() -> int:
    ref = {"seed": DEFAULT_SEED,
           "workloads": {w: record(w) for w in workloads.WORKLOADS}}
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
