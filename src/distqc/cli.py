"""Command-line front end: reproducible, file-emitting subcommands.

Single-point results are emitted as flat JSON objects (inputs echoed, arrays
in row-major order); curves are emitted as CSV with a header row and
round-trip decimal formatting.  Identical configuration and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from .pauli import ChannelParams, NoiseParams, depolarizing_noise, effective_pg
from .purify import (
    PumpSchedule,
    SuccessProbabilityError,
    double_selection,
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


#: most points a grid may hold (a (3,4,14) threshold curve this long: 64 s, 160 MB on 2 vCPUs)
MAX_GRID = 100_000


def _parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:count', inclusive on both ends."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError(f"grid count must be at least 1, got {count}")
    if count > MAX_GRID:
        raise ValueError(f"grid count {count} exceeds MAX_GRID = {MAX_GRID} points")
    if count == 1:
        return [start]
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


def _parse_pm(text: str):
    if text in ("equal", "four_fifteenths"):
        return text
    return float(text)


class _Given(argparse.Action):
    """Store an option's value (a flag stores its const, an option with a
    list default collects its values) and record in ``args.given`` that the
    option was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        if self.nargs == 0:
            values = self.const
        elif isinstance(self.default, list):
            values = getattr(namespace, self.dest) + [values]
        setattr(namespace, self.dest, values)
        namespace.given = {**namespace.given, self.dest: self.option_strings[0]}


class _Args(argparse.Namespace):
    """Parsed options that, once ``reads`` is set, record the name of every
    attribute read from them."""

    def __getattribute__(self, name):
        attrs = object.__getattribute__(self, "__dict__")
        if "reads" in attrs:
            attrs["reads"].add(name)
        return object.__getattribute__(self, name)


def _noise_from_args(args) -> NoiseParams:
    pg_eff = effective_pg(args.pg, args.eta, args.l_wait) if args.eta else args.pg
    return depolarizing_noise(pg_eff, p_M_of(args.pM, pg_eff))


def _f_bar(args, noise: NoiseParams):
    """The purified vector: --fbar as given, or the output of pumping --F
    with --schedule."""
    if args.fbar:
        return [float(x) for x in args.fbar.split(",")]
    schedule = PumpSchedule.parse(args.schedule)
    return pump(ChannelParams(args.F), schedule, noise).f_out


def _emit(text: str, args) -> None:
    """Write ``text`` to --out or stdout, unless an option was given that
    the command never read: that option would be silently ignored."""
    path = args.out
    unread = sorted(opt for dest, opt in args.given.items() if dest not in args.reads)
    if unread:
        raise ValueError(f"{args.command} does not read {', '.join(unread)} with the options given")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_out(payload: dict, args) -> None:
    payload["version"] = __version__
    _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", args)


def _csv_out(header: list[str], rows, config: str, args) -> None:
    lines = [f"# distqc {__version__} {config}", ",".join(header)]
    for row in rows:
        lines.append(",".join(f'"{v}"' if isinstance(v, str) else _fmt(v) for v in row))
    _emit("\n".join(lines) + "\n", args)


def _cmd_pump(args) -> int:
    schedule = PumpSchedule.parse(args.schedule)
    noise = _noise_from_args(args)
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
    noise = _noise_from_args(args)
    f_bar = _f_bar(args, noise)
    table = gate_error_table(kind, f_bar, noise)
    circuit = gate_error_table_from_circuit(kind, f_bar, noise)
    _json_out(
        {
            "kind": kind.value,
            "f_bar": [float(x) for x in f_bar],
            "p_g": noise.p_g,
            "p_M": noise.p_M,
            "table": [float(x) for x in table.ravel()],
            "total_error": float(table.sum()),
            "circuit_table_max_dev": float(np.abs(table - circuit).max()),
            "aggregates": dataclasses.asdict(aggregates(table)),
        },
        args,
    )
    return 0


def _cmd_qvalues(args) -> int:
    noise = _noise_from_args(args)
    f_bar = _f_bar(args, noise)
    p_M = noise.p_M
    q = q_values(f_bar, noise.p_g, p_M)
    cond = ThresholdConditions(margin=args.margin)
    _json_out(
        {
            "f_bar": [float(x) for x in f_bar],
            "p_g": noise.p_g,
            "p_M": p_M,
            **dataclasses.asdict(q),
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
    _csv_out(["schedule", "F", "p_g"], rows, config, args)
    return 0


def _cmd_resource(args) -> int:
    schedule = PumpSchedule.parse(args.schedule)
    model = CostModel(count_local_ops=args.count_local_ops)
    if args.levels:
        if not args.grid:
            raise ValueError("--levels requires --grid")
        levels = [float(x) for x in args.levels.split(",")]
        grid = _parse_grid(args.grid)
        if len(levels) * len(grid) > MAX_GRID:
            raise ValueError(f"{len(levels)} levels x {len(grid)} grid points exceed "
                             f"MAX_GRID = {MAX_GRID} contour lanes")
        curves = contour_expected_cost(schedule, levels, grid, model)
        rows = []
        for level, pts in zip(levels, curves):
            for F, p in pts:
                rows.append((level, F, p))
        _csv_out(["K", "F", "p_g"], rows, f"resource levels={args.levels} grid={args.grid}", args)
        return 0
    noise = _noise_from_args(args)
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

    target, ancilla = (0.85, 0.05, 0.05, 0.05), (0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3)
    f, p = sample_double_selection(target, ancilla, ancilla, noise, 10**6, rng)
    fd_n, _ = double_selection(target, ancilla, ancilla, noise)
    sigma = np.sqrt(fd_n * (1 - fd_n) / (10**6 * p))
    report("double-selection Monte Carlo spot check (4 sigma)",
           bool(np.all(np.abs(f - fd_n) < 4 * sigma + 1e-9)))

    worst = 0.0
    for kind in GateKind:
        for _ in range(20):
            tail = rng.uniform(0, 0.01, 3)
            f_bar = np.array([1 - tail.sum(), *tail])
            # general data- and syndrome-side tables: a uniform one is blind to the measurement bases
            tables = rng.uniform(0, 1e-3, (2, 4, 4))
            tables[:, 0, 0] = 0.0
            tables[:, 0, 0] = 1.0 - tables.sum(axis=(1, 2))
            nz, nz2 = NoiseParams(tables[0], rng.uniform(0, 0.02)), NoiseParams(tables[1], 0.0)
            try:
                circ = gate_error_table_from_circuit(kind, f_bar, nz, nz2)
                dev = float(np.abs(circ - gate_error_table(kind, f_bar, nz, nz2)).max())
            except TableMismatchError as exc:
                dev = exc.deviation
            worst = max(worst, dev)
    report("gate error tables vs circuit propagation", worst <= 1e-12, f"max dev {worst:.2e}")

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
    point = {
        "--F": dict(type=float, default=1.0, help="channel fidelity"),
        "--pg": dict(type=float, default=1e-3, help="two-qubit gate error probability"),
        "--pM": dict(type=_parse_pm, default="equal",
                     help="measurement error: 'equal', 'four_fifteenths' or a number"),
        "--eta": dict(type=float, default=0.0, help="memory error rate per step"),
        "--l-wait": dict(type=int, default=0, help="waiting steps for memory error"),
    }

    def command(name, func, help, inputs):
        """A numeric subcommand; each of its options records that it was given."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, given={})
        add = functools.partial(p.add_argument, action=_Given)
        add("--out", default=None, help="output path (default stdout)")
        for flag in inputs:
            add(flag, **point[flag])
        return add

    add = command("pump", _cmd_pump, "pumped fidelity vector and success probabilities", point)
    add("--schedule", required=True, help="n1,n2 (single) or n1,m1,m2 (double)")

    add = command("ttg", _cmd_ttg, "teleported-gate output error table", point)
    add("--kind", required=True, choices=[k.value for k in GateKind])
    add("--fbar", default=None, help="explicit purified vector f0,f1,f2,f3")
    add("--schedule", default="1,2,2", help="pump schedule when --fbar not given")

    add = command("qvalues", _cmd_qvalues,
                  "topological error-model rates and condition check", point)
    add("--fbar", default=None, help="explicit purified vector f0,f1,f2,f3")
    add("--schedule", default="1,2,2", help="pump schedule when --fbar not given")
    add("--margin", type=float, default=1.0)

    add = command("threshold-curve", _cmd_threshold_curve,
                  "threshold gate error over a fidelity grid", ("--pM",))
    add("--schedule", required=True)
    add("--grid", required=True, help="F grid start:stop:count")
    add("--margin", type=float, default=1.0)

    add = command("infidelity-contour", _cmd_infidelity_contour,
                  "fixed-infidelity loci in the (F, p) plane", ())
    add("--schedule", default=[], required=True, help="repeatable: n1,n2 or n1,m1,m2")
    add("--level", type=float, default=1e-3)
    add("--grid", required=True, help="F grid start:stop:count")

    add = command("resource", _cmd_resource,
                  "expected cost per delivered pair and overheads", point)
    add("--schedule", required=True)
    add("--count-local-ops", nargs=0, const=True, default=False,
        help="count gates and measurements in addition to base pairs")
    add("--mc-trials", type=int, default=0,
        help="cross-check K with this many Monte Carlo trials")
    add("--n-bits", type=int, default=0, help="factoring size for overhead totals")
    add("--T-per-gate", type=float, default=T_PER_PI8_AT_THIRD_THRESHOLD)
    add("--seed", type=int, default=0, help="seed for the Monte Carlo cross-check")
    add("--levels", default=None, help="emit K contours at these levels (CSV)")
    add("--grid", default=None, help="F grid start:stop:count for contours")

    p = sub.add_parser("verify", help="run the oracle-equivalence suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv, _Args())
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for bad arguments
        return 0 if not exc.code else 1
    args.reads = set()  # record reads from here on, so argparse's own never count
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
