"""Command-line front end: reproducible, file-emitting subcommands.

Single-point results are emitted as flat JSON objects (inputs echoed, arrays
in row-major order); curves are emitted as CSV with a header row and
round-trip decimal formatting.  Identical configuration and seed produce
byte-identical output.  A handler imports the modules it needs beyond
``pauli`` and ``purify``, so a call loads only what its subcommand runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import __version__
from .pauli import ChannelParams, NoiseParams, depolarizing_noise, effective_pg, p_M_of
from .purify import PumpSchedule, SuccessProbabilityError, pump


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


#: most points a grid may hold (a (3,4,14) threshold curve this long: 64 s, 160 MB on 2 vCPUs)
MAX_GRID = 100_000


def _number(kind, text: str, message: str):
    """``kind(text)``, or ValueError with ``message``: Python's own names no option."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(message) from None


def _parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:count', inclusive on both ends."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {text!r}")
    start, stop = (_number(float, x, f"grid start and stop must be numbers, got {text!r}") for x in parts[:2])
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ValueError(f"grid start and stop must be finite, got {text!r}")
    count = _number(int, parts[2], f"grid count must be an integer, got {text!r}")
    if count < 1:
        raise ValueError(f"grid count must be at least 1, got {count}")
    if count > MAX_GRID:
        raise ValueError(f"grid count {count} exceeds MAX_GRID = {MAX_GRID} points")
    points = [start] if count == 1 else [start + (stop - start) * i / (count - 1) for i in range(count)]
    if not np.isfinite(points).all():
        raise ValueError(f"grid span and points must be finite, got {text!r}")
    return points


def _parse_pm(text: str):
    if text in ("equal", "four_fifteenths"):
        return text
    try:
        return float(text)
    except ValueError:  # argparse names the option
        raise argparse.ArgumentTypeError(
            f"unknown p_M rule {text!r}; expected 'equal', 'four_fifteenths' or a number") from None


class _Args(argparse.Namespace):
    """Parsed options that, once ``reads`` is set, record the name of every
    attribute read from them."""

    def __getattribute__(self, name):
        attrs = object.__getattribute__(self, "__dict__")
        if "reads" in attrs:
            attrs["reads"].add(name)
        return object.__getattribute__(self, name)


def _noise_from_args(args) -> tuple[float, NoiseParams]:
    """The gate error a point command runs at, --pg with memory error folded
    in when --eta is given, and its noise.  --eta needs --l-wait, as
    --l-wait needs --eta: alone, either would be ignored."""
    if "eta" in args.given and "l_wait" not in args.given:
        raise ValueError("--eta needs --l-wait: memory error is eta times the waiting steps")
    p_g = effective_pg(args.pg, args.eta, args.l_wait) if "eta" in args.given else args.pg
    return p_g, depolarizing_noise(p_g, p_M_of(args.pM, p_g))


def _f_bar(args, noise: NoiseParams):
    """The purified vector: --fbar as given, or the output of pumping --F
    with --schedule."""
    if args.fbar:
        if args.fbar.count(",") != 3:
            raise ValueError(f"--fbar must have 4 comma-separated entries, got {args.fbar!r}")
        return [_number(float, x, f"--fbar must be comma-separated numbers, got {args.fbar!r}")
                for x in args.fbar.split(",")]
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
    import json

    payload["version"] = __version__
    _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", args)


def _csv_out(header: list[str], rows, config: str, args) -> None:
    lines = [f"# distqc {__version__} {config}", ",".join(header)]
    for row in rows:
        lines.append(",".join(f'"{v}"' if isinstance(v, str) else _fmt(v) for v in row))
    _emit("\n".join(lines) + "\n", args)


def _cmd_pump(args) -> int:
    schedule = PumpSchedule.parse(args.schedule)
    p_g, noise = _noise_from_args(args)
    channel = ChannelParams(args.F)
    result = pump(channel, schedule, noise)
    _json_out(
        {
            "F": args.F,
            "p_g": p_g,
            "p_M": noise.p_M,
            "schedule": list(schedule.counts),
            "scheme": schedule.scheme,
            "f_bar": [float(x) for x in result.f_out],
            "infidelity": float(1.0 - result.f_out[0]),
            "success_probs": result.success_probs,
            "attempt_base_pairs": result.program.tally.base_pairs,
            "attempt_twoq_gates": result.program.tally.twoq_gates,
            "attempt_measurements": result.program.tally.measurements,
        },
        args,
    )
    return 0


def _cmd_ttg(args) -> int:
    from . import oracles, telegate

    kind = telegate.GateKind(args.kind)
    p_g, noise = _noise_from_args(args)
    f_bar = _f_bar(args, noise)
    table = telegate.gate_error_table(kind, f_bar, noise)
    deviation = float(np.abs(table - telegate.gate_error_table_from_circuit(kind, f_bar, noise)).max())
    if not deviation < oracles.TOL:
        print(f"internal discrepancy: kind {kind.value}: circuit table deviates from the closed form "
              f"by {deviation:.3e}", file=sys.stderr)
        return 2
    _json_out(
        {
            "kind": kind.value,
            "f_bar": [float(x) for x in f_bar],
            "p_g": p_g,
            "p_M": noise.p_M,
            "table": [float(x) for x in table.ravel()],
            "total_error": float(table.sum()),
            "circuit_table_max_dev": deviation,
            "aggregates": dataclasses.asdict(telegate.aggregates(table)),
        },
        args,
    )
    return 0


def _cmd_qvalues(args) -> int:
    from . import threshold

    p_g, noise = _noise_from_args(args)
    f_bar = _f_bar(args, noise)
    q = threshold.q_values(f_bar, p_g, noise.p_M)
    cond = threshold.ThresholdConditions(margin=args.margin)
    _json_out(
        {
            "f_bar": [float(x) for x in f_bar],
            "p_g": p_g,
            "p_M": noise.p_M,
            **dataclasses.asdict(q),
            "margin": args.margin,
            "fault_tolerant": threshold.check_ft(q, cond),
        },
        args,
    )
    return 0


def _cmd_threshold_curve(args) -> int:
    from . import threshold

    schedule = PumpSchedule.parse(args.schedule)
    grid = _parse_grid(args.grid)
    cond = threshold.ThresholdConditions(margin=args.margin)
    curve = threshold.threshold_curve(schedule, grid, args.pM, cond)
    config = f"threshold-curve schedule={args.schedule} grid={args.grid} pM={args.pM} margin={args.margin}"
    _csv_out(["F", "p_g"], curve, config, args)
    return 0


def _cmd_infidelity_contour(args) -> int:
    from . import threshold

    schedules = [PumpSchedule.parse(s) for s in args.schedule]
    grid = _parse_grid(args.grid)
    curves = threshold.contour_infidelity(schedules, args.level, grid)
    rows = []
    for schedule, pts in zip(schedules, curves):
        tag = ",".join(str(c) for c in schedule.counts)
        for F, p in pts:
            rows.append((tag, F, p))
    config = f"infidelity-contour level={args.level} grid={args.grid}"
    _csv_out(["schedule", "F", "p_g"], rows, config, args)
    return 0


def _cmd_resource(args) -> int:
    from . import resources

    schedule = PumpSchedule.parse(args.schedule)
    model = resources.CostModel(count_local_ops=args.count_local_ops)
    if args.levels is not None:
        if not args.levels.strip():
            raise ValueError("--levels needs at least one level")
        if not args.grid:
            raise ValueError("--levels requires --grid")
        levels = [_number(float, x, f"--levels must be comma-separated numbers, got {args.levels!r}")
                  for x in args.levels.split(",")]
        grid = _parse_grid(args.grid)
        if len(levels) * len(grid) > MAX_GRID:
            raise ValueError(f"{len(levels)} levels x {len(grid)} grid points exceed "
                             f"MAX_GRID = {MAX_GRID} contour lanes")
        curves = resources.contour_expected_cost(schedule, levels, grid, model)
        rows = []
        for level, pts in zip(levels, curves):
            for F, p in pts:
                rows.append((level, F, p))
        _csv_out(["K", "F", "p_g"], rows, f"resource levels={args.levels} grid={args.grid}", args)
        return 0
    p_g, noise = _noise_from_args(args)
    channel = ChannelParams(args.F)
    K = resources.expected_cost(schedule, channel, noise, model)
    payload = {
        "F": args.F,
        "p_g": p_g,
        "p_M": noise.p_M,
        "schedule": list(schedule.counts),
        "K": K,
    }
    if args.mc_trials:
        payload["K_monte_carlo"] = resources.simulate_expected_cost(
            schedule, channel, noise, model, trials=args.mc_trials, seed=args.seed
        )
        payload["mc_trials"] = args.mc_trials
        payload["seed"] = args.seed
    if args.n_bits:
        shor = resources.shor_gate_count(args.n_bits)
        T_per_gate = resources.T_PER_PI8_AT_THIRD_THRESHOLD if args.T_per_gate is None else args.T_per_gate
        report = resources.total_overhead(K, T_per_gate, shor.pi8)
        payload.update(
            {"n_bits": args.n_bits, "toffoli": shor.toffoli, "Omega": shor.pi8,
             "T": report.T, "R": report.R}
        )
    _json_out(payload, args)
    return 0


def _cmd_verify(args) -> int:
    """Run the oracle suites in order on one generator and report each; a
    suite passes iff its deviation lies strictly below its tolerance."""
    from . import oracles

    if args.seed < 0:  # numpy's own refusal names no option
        raise ValueError(f"seed must be a non-negative integer, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    verdicts = []
    for name, suite in oracles.SUITES:
        deviation, tolerance = suite(rng)
        verdicts.append(deviation < tolerance)
        print(f"PASS  {name}" if verdicts[-1] else f"FAIL  {name}  (max dev {deviation:.2e})")
    return 0 if all(verdicts) else 2


#: the options of every point subcommand: the channel and the noise
_POINT = {
    "--F": dict(type=float, default=1.0, help="channel fidelity"),
    "--pg": dict(type=float, default=1e-3, help="two-qubit gate error probability"),
    "--pM": dict(type=_parse_pm, default="equal",
                 help="measurement error: 'equal', 'four_fifteenths' or a number"),
    "--eta": dict(type=float, help="memory error rate per step"),
    "--l-wait": dict(type=int, help="waiting steps for memory error"),
}
_OUT = {"--out": dict(default=None, help="output path (default stdout)")}
_FBAR = {
    "--fbar": dict(default=None, help="explicit purified vector f0,f1,f2,f3"),
    "--schedule": dict(default="1,2,2", help="pump schedule when --fbar not given"),
}

#: each subcommand, in the order ``build_parser`` registers it: its handler,
#: its help and its options (flag -> ``add_argument`` keywords)
SUBCOMMANDS = {
    "pump": (_cmd_pump, "pumped fidelity vector and success probabilities", {
        **_OUT, **_POINT, "--schedule": dict(required=True, help="n1,n2 (single) or n1,m1,m2 (double)"),
    }),
    "ttg": (_cmd_ttg, "teleported-gate output error table", {
        **_OUT, **_POINT, "--kind": dict(required=True, choices=["I", "II", "III"]), **_FBAR,
    }),
    "qvalues": (_cmd_qvalues, "topological error-model rates and condition check", {
        **_OUT, **_POINT, **_FBAR, "--margin": dict(type=float, default=1.0),
    }),
    "threshold-curve": (_cmd_threshold_curve, "threshold gate error over a fidelity grid", {
        **_OUT, "--pM": _POINT["--pM"], "--schedule": dict(required=True),
        "--grid": dict(required=True, help="F grid start:stop:count"),
        "--margin": dict(type=float, default=1.0),
    }),
    "infidelity-contour": (_cmd_infidelity_contour, "fixed-infidelity loci in the (F, p) plane", {
        **_OUT, "--schedule": dict(action="append", required=True, help="repeatable: n1,n2 or n1,m1,m2"),
        "--level": dict(type=float, default=1e-3),
        "--grid": dict(required=True, help="F grid start:stop:count"),
    }),
    "resource": (_cmd_resource, "expected cost per delivered pair and overheads", {
        **_OUT, **_POINT, "--schedule": dict(required=True),
        "--count-local-ops": dict(action="store_true", default=False,
                                  help="count gates and measurements in addition to base pairs"),
        "--mc-trials": dict(type=int, default=0, help="cross-check K with this many Monte Carlo trials"),
        "--n-bits": dict(type=int, default=0, help="factoring size for overhead totals"),
        "--T-per-gate": dict(type=float),  # default: resources.T_PER_PI8_AT_THIRD_THRESHOLD
        "--seed": dict(type=int, default=0, help="seed for the Monte Carlo cross-check"),
        "--levels": dict(default=None, help="emit K contours at these levels (CSV)"),
        "--grid": dict(default=None, help="F grid start:stop:count for contours"),
    }),
    "verify": (_cmd_verify, "run the oracle-equivalence suites", {"--seed": dict(type=int, default=0)}),
}
COMMANDS = tuple(SUBCOMMANDS)


def build_parser(called: str | None = None) -> argparse.ArgumentParser:
    """The ``distqc`` parser.  With ``called`` None it holds every
    subcommand, for the top-level help, version and errors.  Given the name
    of the subcommand a call parses, it holds only that one, and the metavar
    of the subcommand argument still names all of them, so the usage line
    of a top-level error reads as the full parser's.  An option is stored
    only when given: ``main`` fills in the defaults."""
    parser = argparse.ArgumentParser(
        prog="distqc",
        description="Purified-pair fidelities, teleported-gate error tables, "
        "fault-tolerance thresholds and resource overheads.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    # only a one-subcommand parser sets the metavar: argparse also names the
    # argument by it in the full parser's missing or unknown subcommand errors
    metavar = None if called is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (_, summary, options) in SUBCOMMANDS.items():
        if called in (None, name):
            p = sub.add_parser(name, help=summary, allow_abbrev=False)
            for flag, kwargs in options.items():
                p.add_argument(flag, **{**kwargs, "default": argparse.SUPPRESS})
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call whose first argument names a subcommand builds only that one;
    # --help, --version, no argument or any other first argument gets all
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv, _Args())
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for bad arguments
        return 0 if not exc.code else 1
    func, _, options = SUBCOMMANDS[args.command]
    # an option argparse stored was given; every other one takes its default
    args.given = {}
    for flag, kwargs in options.items():
        dest = flag[2:].replace("-", "_")
        if dest in vars(args):
            args.given[dest] = flag
        else:
            setattr(args, dest, kwargs.get("default"))
    args.reads = set()  # record reads from here on, so argparse's own never count
    try:
        return func(args)
    except (ValueError, SuccessProbabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
