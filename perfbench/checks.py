"""Output checks for benchmark operations.

Every operation's output is parsed and checked against invariants that need
no reference (probability vectors, CSV header and row count, thresholds and
contour points on the grid, at the requested schedules and levels and in
range, fault-tolerance flag consistent with the reported rates, K at least
one attempt's cost, Monte Carlo K within 2% of the analytic K) and against
the anchors built into the streams.  For the default seed the parsed values
are also compared with
``reference.json``, recorded at the commit that introduced the benchmark:
bisected p_g within the search's own rel_tol (1e-4), pumped vectors, tables,
rates and K within 1e-12.  None of the checks compares bytes, so a change
that moves a bisection decision by one ulp still passes.
"""

from __future__ import annotations

import json
import math

from workloads import attempt_base_pairs, grid_points

REL_TOL_PG = 1e-4   # rel_tol of the library's p_g bisections
TOL_EXACT = 1e-12   # closed-form quantities
ANCHOR_PG_TOL = 1e-4
MC_REL_TOL = 0.02
#: strict four-class fault-tolerance bounds (qa, qb and qc, correlated)
QA_MAX, QBC_MAX, QCOR_MAX = 0.023, 0.022, 0.0040


class CheckFailure(Exception):
    """An operation's output is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


def _prob_vector(v, what: str) -> list[float]:
    _require(len(v) == 4, f"{what}: expected 4 entries, got {len(v)}")
    _require(all(x >= -TOL_EXACT for x in v), f"{what}: negative entry {v}")
    _require(abs(sum(v) - 1.0) <= TOL_EXACT, f"{what}: sums to {sum(v)!r}")
    return [float(x) for x in v]


def _csv_lines(out: str, header: str) -> list[str]:
    lines = out.rstrip("\n").split("\n")
    _require(len(lines) >= 2 and lines[0].startswith("# distqc "), "missing CSV comment line")
    _require(lines[1] == header, f"CSV header {lines[1]!r}, expected {header!r}")
    return lines[2:]


def _csv_rows(out: str, header: str, n_fields: int) -> list[list[str]]:
    rows = [line.split(",") for line in _csv_lines(out, header)]
    _require(all(len(r) == n_fields for r in rows), "malformed CSV row")
    return rows


def extract(op: dict, out: str) -> dict:
    """Parse one successful operation's output into the values that are
    checked, raising CheckFailure on a broken invariant."""
    kind = op["kind"]
    if kind == "threshold-curve":
        grid = grid_points(op["grid"])
        rows = [[float(a), float(b)] for a, b in _csv_rows(out, "F,p_g", 2)]
        _require(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} grid points")
        for (F, p), g in zip(rows, grid):
            _require(abs(F - g) <= TOL_EXACT, f"row F={F} off the grid point {g}")
            _require(math.isnan(p) or 0.0 <= p <= 0.05, f"threshold {p} outside [0, 0.05]")
        if "anchor_pg" in op:
            p = rows[0][1]
            _require(abs(p - op["anchor_pg"]) <= ANCHOR_PG_TOL,
                     f"anchor threshold {p}, expected {op['anchor_pg']}")
        return {"rows": rows}

    if kind == "infidelity-contour":
        grid = grid_points(op["grid"])
        rows = [line.rsplit(",", 2) for line in _csv_lines(out, "schedule,F,p_g")]
        rows = [[tag.strip('"'), float(F), float(p)] for tag, F, p in rows]
        _require(len(rows) <= len(op["schedules"]) * len(grid), "more rows than grid points")
        for tag, F, p in rows:
            _require(tag in op["schedules"], f"row for schedule {tag!r}, not requested")
            _require(any(abs(F - g) <= TOL_EXACT for g in grid), f"row F={F} off the grid")
            _require(0.0 < p <= 0.05, f"contour p_g {p} outside (0, 0.05]")
        return {"rows": rows}
    if kind == "resource-contour":
        grid = grid_points(op["grid"])
        rows = [[float(K), float(F), float(p)] for K, F, p in _csv_rows(out, "K,F,p_g", 3)]
        _require(len(rows) <= len(op["levels"]) * len(grid), "more rows than grid points")
        for K, F, p in rows:
            _require(K in op["levels"], f"row for level {K}, not requested")
            _require(any(abs(F - g) <= TOL_EXACT for g in grid), f"row F={F} off the grid")
            _require(0.0 < p <= 0.05, f"contour p_g {p} outside (0, 0.05]")
        return {"rows": rows}

    payload = json.loads(out)
    if kind == "pump":
        f = _prob_vector(payload["f_bar"], "f_bar")
        _require(abs(payload["infidelity"] - (1.0 - f[0])) <= TOL_EXACT, "infidelity != 1 - f0")
        probs = payload["success_probs"]
        _require(all(0.0 < p <= 1.0 for p in probs.values()), f"success probabilities {probs}")
        _require(payload["attempt_base_pairs"] == attempt_base_pairs(op["schedule"]),
                 "attempt base-pair count")
        return {"f_bar": f, "success_probs": [probs[k] for k in sorted(probs)]}
    if kind == "ttg":
        _prob_vector(payload["f_bar"], "f_bar")
        table = payload["table"]
        _require(len(table) == 16 and all(x >= 0.0 for x in table), "error table entries")
        _require(abs(payload["total_error"] - sum(table)) <= TOL_EXACT, "total_error != sum")
        _require(payload["circuit_table_max_dev"] <= TOL_EXACT, "circuit table disagrees")
        return {"table": table}
    if kind == "qvalues":
        _prob_vector(payload["f_bar"], "f_bar")
        q = [payload[k] for k in ("qa", "qb", "qc", "qab", "qac", "qbb")]
        _require(all(x >= 0.0 for x in q), f"negative error rate {q}")
        ft = payload["fault_tolerant"]
        want = q[0] < QA_MAX and q[1] < QBC_MAX and q[2] < QBC_MAX and max(q[3:]) < QCOR_MAX
        _require(ft is want, f"fault_tolerant={ft} but the rates say {want}")
        return {"q": q, "ft": ft}
    if kind in ("resource", "probe"):
        K = payload["K"]
        _require(K >= attempt_base_pairs(op["schedule"]), f"K={K} below one attempt's cost")
        if kind == "resource":
            return {"K": K}
        K_mc = payload["K_monte_carlo"]
        _require(abs(K_mc / K - 1.0) <= MC_REL_TOL, f"Monte Carlo K {K_mc} vs analytic {K}")
        return {"K": K, "K_mc": K_mc}
    raise ValueError(f"unknown operation kind {kind!r}")


def _close(a: float, b: float, tol: float, relative: bool) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    scale = max(abs(a), abs(b)) if relative else 1.0
    return abs(a - b) <= tol * scale


def _same_vector(a, b, tol: float) -> bool:
    return len(a) == len(b) and all(_close(x, y, tol, False) for x, y in zip(a, b))


def compare(kind: str, values: dict, ref: dict) -> None:
    """Raise CheckFailure unless ``values`` match the recorded reference."""
    if kind in ("threshold-curve", "infidelity-contour", "resource-contour"):
        rows, want = values["rows"], ref["rows"]
        _require(len(rows) == len(want), f"{len(rows)} rows, reference has {len(want)}")
        for r, w in zip(rows, want):
            _require(r[:-1] == w[:-1], f"row {r} vs reference {w}")
            _require(_close(r[-1], w[-1], REL_TOL_PG, True), f"p_g {r[-1]} vs reference {w[-1]}")
    elif kind == "resource":
        _require(_close(values["K"], ref["K"], TOL_EXACT, True), f"K {values['K']} vs {ref['K']}")
    elif kind == "qvalues":
        _require(_same_vector(values["q"], ref["q"], TOL_EXACT) and values["ft"] == ref["ft"],
                 "error rates differ from the reference")
    else:  # pump and ttg: vectors
        for key, want in ref.items():
            _require(_same_vector(values[key], want, TOL_EXACT), f"{key} differs from reference")


#: failures the benchmark exists to surface until they are fixed; any other
#: failure marks the run incorrect
KNOWN_DEFECTS = {
    # check_ft returns numpy.bool_ when an independent-class bound fails
    # first, and the JSON encoder rejects it
    "qvalues-non-ft": lambda kind, reason: kind == "qvalues" and "not JSON serializable" in reason,
    # the Monte Carlo restart loop has no attempt budget, so a point with
    # p_net ~ 5e-24 never returns
    "mc-probe-deadline": lambda kind, reason: kind == "probe" and reason == "deadline",
}


def known_defect(kind: str, reason: str) -> str | None:
    for name, matches in KNOWN_DEFECTS.items():
        if matches(kind, reason):
            return name
    return None


class Outcomes:
    """Attempted and failed operations; wrong outputs and failures other
    than the known defects make the run incorrect."""

    def __init__(self, reference):
        self.reference = reference or []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = []

    def fail(self, i: int | None, op: dict, reason: str, wrong: bool) -> None:
        self.failed += 1
        defect = None if wrong else known_defect(op["kind"], reason)
        self.correct = self.correct and defect is not None
        if len(self.failures) < 50:
            self.failures.append({"op": i, "argv": op["argv"], "reason": reason[:300],
                                  "known_defect": defect})

    def record(self, i: int | None, op: dict, rc, out: str, err: str, error: str | None) -> None:
        """Record one run of operation ``i`` of the stream (None for an
        operation outside it): its exit code and output, or the error that
        ended it."""
        self.attempted += 1
        if error is not None:
            return self.fail(i, op, error, wrong=False)
        if rc == 1 and op["kind"] == "probe" and err.startswith("error:"):
            return  # the up-front refusal a bounded restart loop gives
        if rc != 0:
            return self.fail(i, op, f"exit {rc}: {err.strip()}", wrong=False)
        try:
            values = extract(op, out)
            if i is not None and i < len(self.reference):
                ref = self.reference[i]
                if ref["argv"] != " ".join(op["argv"]):
                    raise CheckFailure(f"stream differs from the reference at op {i}")
                if ref["values"] is not None:
                    compare(op["kind"], values, ref["values"])
        except (CheckFailure, KeyError, ValueError, TypeError) as exc:
            self.fail(i, op, f"check: {type(exc).__name__}: {exc}", wrong=True)
