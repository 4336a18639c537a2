"""Command-line front end: reproducible, file-emitting subcommands.

Single-point results are emitted as flat JSON objects (inputs echoed, arrays
in row-major order); curves are emitted as CSV with a header row and
round-trip decimal formatting.  Identical configuration and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .pauli import ChannelParams, NoiseParams, depolarizing_noise, effective_pg
from .purify import (
    PumpSchedule,
    SuccessProbabilityError,
    double_selection_tensor,
    enumerate_double_map,
    enumerate_single_map,
    pump,
    sample_double_selection,
    single_selection_tensor,
)
from .telegate import (
    GateKind,
    TableMismatchError,
    aggregates,
    gate_error_table,
    gate_error_table_from_circuit,
)
from .threshold import (
    ThresholdConditions,
    check_ft,
    contour_infidelity,
    p_M_of,
    q_values,
    raussendorf_q_values,
    threshold_curve,
)
from .resources import (
    CostModel,
    T_PER_PI8_AT_THIRD_THRESHOLD,
    contour_expected_cost,
    expected_cost,
    shor_gate_count,
    simulate_expected_cost,
    total_overhead,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:count', inclusive on both ends."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError(f"grid count must be at least 1, got {count}")
    if count == 1:
        return [start]
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


def _parse_pm(text: str):
    if text in ("equal", "four_fifteenths"):
        return text
    return float(text)


class _Given(argparse.Action):
    """Store an option's value and record the option in ``args.given``, so
    a mode that does not read the option can refuse it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.option_strings[0]}


def _noise_from_args(args, p_g: float) -> NoiseParams:
    pg_eff = p_g
    if getattr(args, "eta", 0.0):
        pg_eff = effective_pg(p_g, args.eta, args.l_wait)
    return depolarizing_noise(pg_eff, p_M_of(args.pM, pg_eff))


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_out(payload: dict, args) -> None:
    payload["version"] = __version__
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)


def _csv_out(header: list[str], rows, config: str, args) -> None:
    lines = [f"# distqc {__version__} {config}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_pump(args) -> int:
    schedule = PumpSchedule.parse(args.schedule)
    noise = _noise_from_args(args, args.pg)
    channel = ChannelParams(args.F)
    result = pump(channel, schedule, noise)
    _json_out(
        {
            "F": args.F,
            "p_g": noise.p_g,
            "p_M": noise.p_M,
            "schedule": list(schedule.counts),
            "scheme": schedule.scheme,
            "f_bar": [float(x) for x in result.f_out],
            "infidelity": float(1.0 - result.f_out[0]),
            "success_probs": result.success_probs,
            "attempt_base_pairs": result.attempt_cost.base_pairs,
            "attempt_twoq_gates": result.attempt_cost.twoq_gates,
            "attempt_measurements": result.attempt_cost.measurements,
        },
        args,
    )
    return 0


def _cmd_ttg(args) -> int:
    kind = GateKind(args.kind)
    noise = _noise_from_args(args, args.pg)
    if args.fbar:
        f_bar = [float(x) for x in args.fbar.split(",")]
    else:
        schedule = PumpSchedule.parse(args.schedule)
        channel = ChannelParams(args.F)
        f_bar = pump(channel, schedule, noise).f_out
    table = gate_error_table(kind, f_bar, noise)
    circuit = gate_error_table_from_circuit(kind, f_bar, noise)
    agg = aggregates(table)
    _json_out(
        {
            "kind": kind.value,
            "f_bar": [float(x) for x in f_bar],
            "p_g": noise.p_g,
            "p_M": noise.p_M,
            "table": [float(x) for x in table.ravel()],
            "total_error": float(table.sum()),
            "circuit_table_max_dev": float(np.abs(table - circuit).max()),
            "aggregates": {
                "p_zx": agg.p_zx,
                "p_zxbar": agg.p_zxbar,
                "p_zbarx": agg.p_zbarx,
                "p_xz": agg.p_xz,
                "p_xzbar": agg.p_xzbar,
                "p_xbarz": agg.p_xbarz,
            },
        },
        args,
    )
    return 0


def _cmd_qvalues(args) -> int:
    noise = _noise_from_args(args, args.pg)
    if args.fbar:
        f_bar = [float(x) for x in args.fbar.split(",")]
    else:
        schedule = PumpSchedule.parse(args.schedule)
        f_bar = pump(ChannelParams(args.F), schedule, noise).f_out
    p_M = noise.p_M
    q = q_values(f_bar, noise.p_g, p_M)
    cond = ThresholdConditions(margin=args.margin)
    _json_out(
        {
            "f_bar": [float(x) for x in f_bar],
            "p_g": noise.p_g,
            "p_M": p_M,
            "qa": q.qa,
            "qb": q.qb,
            "qc": q.qc,
            "qab": q.qab,
            "qac": q.qac,
            "qbb": q.qbb,
            "margin": args.margin,
            "fault_tolerant": check_ft(q, cond),
        },
        args,
    )
    return 0


def _cmd_threshold_curve(args) -> int:
    schedule = PumpSchedule.parse(args.schedule)
    grid = _parse_grid(args.grid)
    cond = ThresholdConditions(margin=args.margin)
    curve = threshold_curve(schedule, grid, args.pM, cond)
    config = f"threshold-curve schedule={args.schedule} grid={args.grid} pM={args.pM} margin={args.margin}"
    _csv_out(["F", "p_g"], curve, config, args)
    return 0


def _cmd_infidelity_contour(args) -> int:
    schedules = [PumpSchedule.parse(s) for s in args.schedule]
    grid = _parse_grid(args.grid)
    curves = contour_infidelity(schedules, args.level, grid)
    rows = []
    for schedule, pts in zip(schedules, curves):
        tag = ",".join(str(c) for c in schedule.counts)
        for F, p in pts:
            rows.append((tag, F, p))
    config = f"infidelity-contour level={args.level} grid={args.grid}"
    lines = [f"# distqc {__version__} {config}", "schedule,F,p_g"]
    for tag, F, p in rows:
        lines.append(f'"{tag}",{_fmt(F)},{_fmt(p)}')
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_resource(args) -> int:
    schedule = PumpSchedule.parse(args.schedule)
    model = CostModel(count_local_ops=args.count_local_ops)
    if args.levels:
        if not args.grid:
            raise ValueError("--levels requires --grid")
        if args.given:
            raise ValueError(
                f"--levels traces contours over --grid and reads no {', '.join(sorted(args.given))}"
            )
        levels = [float(x) for x in args.levels.split(",")]
        grid = _parse_grid(args.grid)
        curves = contour_expected_cost(schedule, levels, grid, model)
        rows = []
        for level, pts in zip(levels, curves):
            for F, p in pts:
                rows.append((level, F, p))
        _csv_out(["K", "F", "p_g"], rows, f"resource levels={args.levels} grid={args.grid}", args)
        return 0
    if "--seed" in args.given and not args.mc_trials:
        raise ValueError("--seed seeds the Monte Carlo cross-check; it needs --mc-trials")
    if "--T-per-gate" in args.given and not args.n_bits:
        raise ValueError("--T-per-gate enters the overhead totals; it needs --n-bits")
    noise = _noise_from_args(args, args.pg)
    channel = ChannelParams(args.F)
    K = expected_cost(schedule, channel, noise, model)
    payload = {
        "F": args.F,
        "p_g": noise.p_g,
        "p_M": noise.p_M,
        "schedule": list(schedule.counts),
        "K": K,
    }
    if args.mc_trials:
        payload["K_monte_carlo"] = simulate_expected_cost(
            schedule, channel, noise, model, trials=args.mc_trials, seed=args.seed
        )
        payload["mc_trials"] = args.mc_trials
        payload["seed"] = args.seed
    if args.n_bits:
        shor = shor_gate_count(args.n_bits)
        report = total_overhead(K, args.T_per_gate, shor.pi8)
        payload.update(
            {"n_bits": args.n_bits, "toffoli": shor.toffoli, "Omega": shor.pi8,
             "T": report.T, "R": report.R}
        )
    _json_out(payload, args)
    return 0


def _cmd_verify(args) -> int:
    """Run the oracle-equivalence suites and report per-suite pass/fail."""
    failures = 0
    rng = np.random.default_rng(args.seed)

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
        if not ok:
            failures += 1

    noise = depolarizing_noise(1.5e-3, 1.2e-3)
    S = single_selection_tensor(noise)
    S_or = enumerate_single_map(noise)
    report("single-selection tensor vs exhaustive enumeration",
           bool(np.abs(S - S_or).max() < 1e-12), f"max dev {np.abs(S - S_or).max():.2e}")

    D = double_selection_tensor(noise)
    D_or = enumerate_double_map(noise)
    report("double-selection tensor vs exhaustive enumeration",
           bool(np.abs(D - D_or).max() < 1e-12), f"max dev {np.abs(D - D_or).max():.2e}")

    f, p = sample_double_selection(
        (0.85, 0.05, 0.05, 0.05), (0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3),
        (0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3), noise, 10**6, rng
    )
    fd = np.einsum("ijkl,i,j,k->l", D, [0.85, 0.05, 0.05, 0.05],
                   [0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3], [0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3])
    fd_n = fd / fd.sum()
    sigma = np.sqrt(fd_n * (1 - fd_n) / (10**6 * p))
    report("double-selection Monte Carlo spot check (4 sigma)",
           bool(np.all(np.abs(f - fd_n) < 4 * sigma + 1e-9)))

    ok = True
    worst = 0.0
    for kind in GateKind:
        for _ in range(20):
            pg, pM = rng.uniform(0, 0.02, 2)
            tail = rng.uniform(0, 0.01, 3)
            f_bar = np.array([1 - tail.sum(), *tail])
            nz = depolarizing_noise(pg, pM)
            try:
                circ = gate_error_table_from_circuit(kind, f_bar, nz)
            except TableMismatchError:
                ok = False
                break
            worst = max(worst, float(np.abs(circ - gate_error_table(kind, f_bar, nz)).max()))
    report("gate error tables vs circuit propagation", ok, f"max dev {worst:.2e}")

    q = raussendorf_q_values(0.0075)
    report("baseline syndrome-round regression",
           bool(abs(q.qa - 0.023) < 1e-15 * 0.023 and abs(q.qab - 0.0040) < 1e-15 * 0.0040))

    return 2 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distqc",
        description="Purified-pair fidelities, teleported-gate error tables, "
        "fault-tolerance thresholds and resource overheads.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pump_inputs=True):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if pump_inputs:
            p.add_argument("--F", type=float, default=1.0, action=_Given, help="channel fidelity")
            p.add_argument("--pg", type=float, default=1e-3, action=_Given,
                           help="two-qubit gate error probability")
            pm_option(p)
            p.add_argument("--eta", type=float, default=0.0, action=_Given,
                           help="memory error rate per step")
            p.add_argument("--l-wait", type=int, default=0, action=_Given,
                           help="waiting steps for memory error")

    def pm_option(p):
        p.set_defaults(given=frozenset())
        p.add_argument("--pM", type=_parse_pm, default="equal", action=_Given,
                       help="measurement error: 'equal', 'four_fifteenths' or a number")

    p = sub.add_parser("pump", help="pumped fidelity vector and success probabilities")
    common(p)
    p.add_argument("--schedule", required=True, help="n1,n2 (single) or n1,m1,m2 (double)")
    p.set_defaults(func=_cmd_pump)

    p = sub.add_parser("ttg", help="teleported-gate output error table")
    common(p)
    p.add_argument("--kind", required=True, choices=[k.value for k in GateKind])
    p.add_argument("--fbar", default=None, help="explicit purified vector f0,f1,f2,f3")
    p.add_argument("--schedule", default="1,2,2", help="pump schedule when --fbar not given")
    p.set_defaults(func=_cmd_ttg)

    p = sub.add_parser("qvalues", help="topological error-model rates and condition check")
    common(p)
    p.add_argument("--fbar", default=None, help="explicit purified vector f0,f1,f2,f3")
    p.add_argument("--schedule", default="1,2,2", help="pump schedule when --fbar not given")
    p.add_argument("--margin", type=float, default=1.0)
    p.set_defaults(func=_cmd_qvalues)

    p = sub.add_parser("threshold-curve", help="threshold gate error over a fidelity grid")
    common(p, pump_inputs=False)
    pm_option(p)
    p.add_argument("--schedule", required=True)
    p.add_argument("--grid", required=True, help="F grid start:stop:count")
    p.add_argument("--margin", type=float, default=1.0)
    p.set_defaults(func=_cmd_threshold_curve)

    p = sub.add_parser("infidelity-contour", help="fixed-infidelity loci in the (F, p) plane")
    common(p, pump_inputs=False)
    p.add_argument("--schedule", action="append", required=True,
                   help="repeatable: n1,n2 or n1,m1,m2")
    p.add_argument("--level", type=float, default=1e-3)
    p.add_argument("--grid", required=True, help="F grid start:stop:count")
    p.set_defaults(func=_cmd_infidelity_contour)

    p = sub.add_parser("resource", help="expected cost per delivered pair and overheads")
    common(p)
    p.add_argument("--schedule", required=True)
    p.add_argument("--count-local-ops", action="store_true",
                   help="count gates and measurements in addition to base pairs")
    p.add_argument("--mc-trials", type=int, default=0, action=_Given,
                   help="cross-check K with this many Monte Carlo trials")
    p.add_argument("--n-bits", type=int, default=0, action=_Given,
                   help="factoring size for overhead totals")
    p.add_argument("--T-per-gate", type=float, default=T_PER_PI8_AT_THIRD_THRESHOLD,
                   action=_Given)
    p.add_argument("--seed", type=int, default=0, action=_Given,
                   help="seed for the Monte Carlo cross-check")
    p.add_argument("--levels", default=None, help="emit K contours at these levels (CSV)")
    p.add_argument("--grid", default=None, help="F grid start:stop:count for contours")
    p.set_defaults(func=_cmd_resource)

    p = sub.add_parser("verify", help="run the oracle-equivalence suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for bad arguments
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except (ValueError, SuccessProbabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TableMismatchError as exc:
        print(f"internal discrepancy: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
