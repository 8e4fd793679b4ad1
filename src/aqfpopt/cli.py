"""Command-line front end: optimize, verify, gen and sweep subcommands.

Exit codes are stable across commands: 0 success, 1 usage or input errors,
2 infeasible schedule or solver breakdown, 3 verification failure. The ``QPRO_LOG`` environment
variable (error, warn, info, debug) controls diagnostic verbosity.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib.util
import json
import os
import random
import sys
import time
from importlib import resources
from typing import NoReturn, Optional

from aqfpopt import __version__, timing
from aqfpopt.ingest import (
    emit_report,
    parse_circuit,
    parse_library,
    parse_report,
    render_report_table,
    schedule_from_report,
    serialize_circuit,
    serialize_report,
)
from aqfpopt.model import (
    BUFFER_CELL,
    FIX_TOL,
    LOG_LEVELS,
    CellLibrary,
    Circuit,
    Connection,
    Diagnostic,
    Gate,
    InfeasibleScheduleError,
    OptimizationConfig,
    PwlDomainError,
    Schedule,
    ValidationError,
    log,
    validate_circuit,
)


def _lazy_import(name: str):
    """Module ``name``, registered in ``sys.modules`` without running its code:
    the first attribute looked up on it runs the code. A command that never
    calls into the module never compiles it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    package, _, attr = name.rpartition(".")
    setattr(sys.modules[package], attr, module)
    return module


# Only optimize and sweep solve, and only removal runs bufferopt. Calls go
# through the module, as ``solver.optimize_schedule``, so a function swapped
# in on the module after this import is the one called.
solver = _lazy_import("aqfpopt.solver")
bufferopt = _lazy_import("aqfpopt.bufferopt")


def _load_now(*modules) -> None:
    """Run the code of each lazy module now; None entries are skipped. A
    command that needs a module does this before it reads its inputs, so the
    compile's transient memory is freed before the parsed circuit is built,
    not stacked on top of it."""
    for module in modules:
        if module is not None:
            vars(module)  # any attribute lookup runs a lazy module's code

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3

#: Built-in sweep presets. table1a/1b/1c are single optimizer configurations
#: at different priorities; table3 pairs a baseline run against a
#: buffer-removal run and reports the relative change.
PRESETS = ("table1a", "table1b", "table1c", "table3")


def reference_library() -> CellLibrary:
    """The library shipped with the package (uniform cells, 5 GHz limit)."""
    text = resources.files("aqfpopt").joinpath("data/reference.qlib.json").read_text()
    return parse_library(text)


# ---------------------------------------------------------------------------
# Synthetic benchmark generation

_GATE_CELLS = ("majority3", "splitter2", "splitter3", "splitter4")


def generate_circuit(
    rows: int,
    width: int,
    seed: int,
    chain_prob: float = 0.0,
    skip_prob: float = 0.0,
    adversarial: bool = False,
    lib: Optional[CellLibrary] = None,
) -> Circuit:
    """Deterministic random pipeline: ``width`` gates per row, feedforward
    connections to the next row, optional buffer chains and phase-skipping
    connections.

    Wire lengths are drawn across the full drivable range, but extracted
    propagation delays are emitted with a bounded per-row spread so the
    result is schedulable by construction; ``adversarial`` drops the
    explicit delays and lets raw wire lengths produce infeasible instances.
    Sizes below 1 and probabilities outside [0, 1], NaN included, raise a
    :class:`ValidationError` naming each such argument.
    """
    errs = [
        Diagnostic("INVALID_CONFIG", name, f"{name} must be >= 1")
        for name, count in (("rows", rows), ("width", width))
        if count < 1
    ]
    errs += [
        Diagnostic("INVALID_CONFIG", name, f"{name} must be in [0, 1]")
        for name, prob in (("chain_prob", chain_prob), ("skip_prob", skip_prob))
        if not 0.0 <= prob <= 1.0
    ]
    if errs:
        raise ValidationError(errs)
    lib = lib if lib is not None else reference_library()
    rng = random.Random(seed)
    pool = [cell for cell in _GATE_CELLS if cell in lib.cells] or sorted(lib.cells)

    prop_base, prop_spread = 25.0, 35.0

    def draw_prop() -> Optional[float]:
        if adversarial:
            return None
        return prop_base + rng.uniform(0.0, prop_spread)

    gates: list[Gate] = []
    grid: list[list[str]] = []
    row_base_of: list[float] = []
    row_tap: list[float] = []
    base = 0.0
    for r in range(rows):
        if r:
            base += rng.uniform(0.5, 2.0)
        row_base_of.append(base)
        tap = 0.0
        ids = []
        for w in range(width):
            tap += rng.uniform(0.0, 0.1)
            gid = f"g{r}_{w}"
            gates.append(Gate(id=gid, cell=rng.choice(pool), row=r, clock_offset=base + tap))
            ids.append(gid)
        grid.append(ids)
        row_tap.append(tap)

    connections: list[Connection] = []
    seen_pairs: set[tuple[str, str]] = set()

    def connect(src: str, dst: str, length: float, prop: Optional[float]) -> None:
        if (src, dst) in seen_pairs:
            return
        seen_pairs.add((src, dst))
        connections.append(Connection(src=src, dst=dst, length=length, prop=prop))

    for r in range(rows - 1):
        for dst in grid[r + 1]:
            src = rng.choice(grid[r])
            connect(src, dst, rng.uniform(0.0, lib.l_max_drive), draw_prop())
            if width > 1 and rng.random() < 0.3:
                connect(rng.choice(grid[r]), dst, rng.uniform(0.0, lib.l_max_drive), draw_prop())

    chain_count = 0
    if BUFFER_CELL in lib.cells:
        for r in range(rows):
            if rng.random() >= chain_prob:
                continue
            k = rng.randint(1, 4)
            if r + k + 1 > rows - 1:
                continue
            src = rng.choice(grid[r])
            dst = rng.choice(grid[r + k + 1])
            nodes = [src]
            for j in range(1, k + 1):
                row_tap[r + j] += rng.uniform(0.0, 0.1)
                gid = f"c{chain_count}_{j}"
                gates.append(
                    Gate(
                        id=gid,
                        cell=BUFFER_CELL,
                        row=r + j,
                        clock_offset=row_base_of[r + j] + row_tap[r + j],
                    )
                )
                nodes.append(gid)
            nodes.append(dst)
            for a, b in zip(nodes, nodes[1:]):
                connect(a, b, rng.uniform(0.1, 0.45) * lib.l_max_drive, draw_prop())
            chain_count += 1

    for r in range(rows - 2):
        if rng.random() < skip_prob:
            src = rng.choice(grid[r])
            dst = rng.choice(grid[r + 2])
            prop = None if adversarial else draw_prop() + draw_prop()
            connect(src, dst, rng.uniform(0.0, lib.l_max_drive), prop)

    return Circuit(
        name=f"gen-r{rows}-w{width}-s{seed}",
        num_rows=rows,
        gates=tuple(gates),
        connections=tuple(connections),
    )


# ---------------------------------------------------------------------------
# Shared plumbing


def _fail(diagnostics, code: int = EXIT_INPUT) -> int:
    for d in diagnostics:
        print(str(d), file=sys.stderr)
    return code


def _read_input(path, parse):
    """Open an input file and pass it to ``parse``; an OS error becomes an
    IO_ERROR diagnostic. The parsers read the file themselves, so no caller
    frame keeps the text alive once it is decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except OSError as e:
        raise ValidationError([_io_diag(path, e)]) from e


def _load_inputs(args):
    circuit = _read_input(args.circuit, parse_circuit)
    lib = _read_input(args.lib, parse_library)
    diags = validate_circuit(circuit, lib)
    if diags:
        raise ValidationError(diags)
    return circuit, lib


def _io_diag(path, err):
    return Diagnostic("IO_ERROR", str(path), str(err))


def _write_output(path, write) -> None:
    """Open a command's output file and pass it to ``write``; an OS error
    becomes an IO_ERROR diagnostic."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as e:
        raise ValidationError([_io_diag(path, e)]) from e


def _parse_priority(text: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(","))
    if sorted(parts) != ["latency", "period", "slack"]:
        raise argparse.ArgumentTypeError(
            "--priority must list period, latency and slack exactly once each"
        )
    return parts


def _config_from_args(args) -> OptimizationConfig:
    weighted = any(getattr(args, name) is not None for name in ("tau", "sigma", "lam"))
    return OptimizationConfig(
        tau=args.tau if args.tau is not None else 1.0,
        sigma=args.sigma if args.sigma is not None else 1e-8,
        lam=args.lam if args.lam is not None else 1e-4,
        s_min=args.smin,
        s_max=args.smax,
        t_min_override=args.tmin,
        t_max_override=args.tmax,
        hold_mode=args.hold_mode,
        priority_mode="weighted" if weighted else "lexicographic",
        priority=args.priority,
        max_skip=args.max_skip,
    )


def _config_echo(cfg: OptimizationConfig, remove_buffers_flag: bool) -> dict:
    doc = cfg._asdict()
    doc["priority"] = list(cfg.priority)
    doc["remove_buffers"] = remove_buffers_flag
    return doc


def _manifest(args, cfg, remove_flag, timings, summary) -> dict:
    return {
        "inputs": {"circuit": str(args.circuit), "lib": str(args.lib)},
        "config": _config_echo(cfg, remove_flag),
        "tool_version": __version__,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "summary": summary,
    }


def _schedule(held, lib, configs, remove, timings):
    """The paper's flow on one circuit, for configs that share their
    ``max_skip``: remove buffers if ``remove``, build the constraints once,
    solve each config, then check each schedule by STA.

    ``held`` is a one-element list holding the circuit. It is emptied, so a
    caller that keeps no other reference lets the parsed circuit go as soon
    as removal has replaced it. Returns the removal plan (None without
    removal) and, per config, its ``(Schedule, SlackReport)`` or the
    :class:`InfeasibleScheduleError` of its solve. Each phase's time goes
    into ``timings``. The constraint set is dropped before the STA.
    """
    circuit = held.pop()
    plan = None
    if remove:
        t0 = time.perf_counter()
        circuit, plan = bufferopt.remove_buffers(circuit, lib, max_skip=configs[0].max_skip)
        timings["buffer_removal"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tcs = timing.build_constraints(circuit, lib, configs[0])  # reads only max_skip
    timings["constraints"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solved = []
    for cfg in configs:
        try:
            solved.append(solver.optimize_schedule(tcs, lib, cfg))
        except InfeasibleScheduleError as e:
            solved.append(e)
    timings["solve"] = time.perf_counter() - t0
    del tcs  # the STA reads the circuit, not the constraint records

    t0 = time.perf_counter()
    outcomes = [
        s if isinstance(s, InfeasibleScheduleError) else (s, timing.sta_check(circuit, lib, s, cfg.hold_mode))
        for s, cfg in zip(solved, configs)
    ]
    timings["verify"] = time.perf_counter() - t0
    return plan, outcomes


# ---------------------------------------------------------------------------
# Subcommands


def cmd_optimize(args) -> int:
    _load_now(solver, bufferopt if args.remove_buffers else None)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    circuit, lib = _load_inputs(args)
    timings["parse"] = time.perf_counter() - t0
    cfg = _config_from_args(args)
    # The report is written from the STA records, so the pipeline gets the
    # only reference to the circuit.
    held = [circuit]
    del circuit
    plan, [outcome] = _schedule(held, lib, [cfg], args.remove_buffers, timings)
    if isinstance(outcome, InfeasibleScheduleError):
        raise outcome
    sched, slacks = outcome

    summary = f"{1000.0 / sched.period:.4g} GHz, latency {sched.latency:.6g} ps"
    report = emit_report(
        sched,
        slacks,
        plan,
        manifest=_manifest(args, cfg, args.remove_buffers, timings, summary),
        verbose=args.verbose,
    )
    if args.out:
        _write_output(args.out, lambda fh: serialize_report(report, fh))
    print(render_report_table(report))
    if args.verbose:
        for e in report["connections"]:
            print(f"{e.src} -> {e.dst}: setup {e.setup_slack:.4g} ps, hold {e.hold_slack:.4g} ps")
    if not slacks.passing():
        print(f"schedule fails STA: min slack {slacks.min_slack:.6g} ps", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _decode_report(path) -> dict:
    """The parts of the report file at ``path`` that ``verify`` reads: the
    manifest config, the schedule, and the frequency and STA slack it claims.
    The rest of the document, one object per connection, is freed on return."""
    report = _read_input(path, parse_report)
    return {"config": (report.get("manifest") or {}).get("config", {}), "schedule": schedule_from_report(report),
            "frequency_ghz": report["frequency_ghz"], "min_slack_ps": report["min_slack_ps"]}


def _report_mismatches(claims: dict, sched: Schedule, sta_min: Optional[float]) -> list[Diagnostic]:
    """The report's figures that disagree with its schedule or with ``sta_min``, the STA's minimum."""
    latency, frequency, claimed = sum(sched.row_deltas), 1000.0 / sched.period, claims["min_slack_ps"]
    sta = "none, the circuit has no connections" if sta_min is None else f"{sta_min:.6g} ps"
    rules = (  # field, whether it agrees, what the report says against what is found
        ("latency_ps", abs(sched.latency - latency) <= 1e-6,
         f"{sched.latency:.6g} ps, the row deltas sum to {latency:.6g} ps"),
        ("frequency_ghz", abs(claims["frequency_ghz"] - frequency) <= 1e-9 * frequency,
         f"{claims['frequency_ghz']:.6g} GHz, the period gives {frequency:.6g} GHz"),
        ("min_slack_ps", claimed == sta_min if None in (claimed, sta_min) else abs(claimed - sta_min) <= 1e-6,
         f"{'null' if claimed is None else f'{claimed:.6g} ps'}, the STA finds {sta}"),
        ("slack_ps", sta_min is None or sched.slack <= sta_min + 1e-6,
         f"{sched.slack:.6g} ps, above the STA minimum of {sta}"),
    )
    return [Diagnostic("REPORT_MISMATCH", field, f"report says {said}") for field, agrees, said in rules if not agrees]


def cmd_verify(args) -> int:
    # Circuit and library errors are reported before report errors.
    circuit, lib = _load_inputs(args)
    decoded = _decode_report(args.schedule)
    manifest_cfg, sched = decoded["config"], decoded["schedule"]

    if manifest_cfg.get("remove_buffers"):
        circuit, _ = bufferopt.remove_buffers(circuit, lib, max_skip=manifest_cfg.get("max_skip", 2))
        log.info("re-applied buffer removal recorded in the report manifest")
    if len(sched.row_deltas) != circuit.num_rows - 1:
        message = f"report has {len(sched.row_deltas)} row deltas, circuit needs {circuit.num_rows - 1}"
        return _fail([Diagnostic("SCHEMA_MISMATCH", "schedule", message)])
    if not lib.period_lo - FIX_TOL <= sched.period <= lib.t_max + FIX_TOL:
        message = (f"period {sched.period:.6g} ps outside the library range "
                   f"[{lib.period_lo:.6g}, {lib.t_max:.6g}] ps")
        return _fail([Diagnostic("PERIOD_OUT_OF_RANGE", "schedule", message)], EXIT_VERIFY)
    hold_mode = manifest_cfg.get("hold_mode", args.hold_mode)
    try:
        slacks = timing.sta_check(circuit, lib, sched, hold_mode)
    except PwlDomainError as e:
        return _fail([Diagnostic("PERIOD_OUT_OF_RANGE", "schedule", str(e))], EXIT_VERIFY)
    failing = [
        Diagnostic("STA_VIOLATION", f"{e.src}->{e.dst}",
                   f"timing violation: setup {e.setup_slack:.6g} ps, hold {e.hold_slack:.6g} ps")
        for e in slacks.entries
        if not e.passing()
    ]
    if failing:
        return _fail(failing, EXIT_VERIFY)
    mismatches = _report_mismatches(decoded, sched, slacks.min_slack)
    if mismatches:
        return _fail(mismatches, EXIT_VERIFY)
    ms = "n/a" if slacks.min_slack is None else f"{slacks.min_slack:.6g} ps"
    print(f"schedule verifies: min slack {ms}")
    return EXIT_OK


def cmd_gen(args) -> int:
    circuit = generate_circuit(
        rows=args.rows,
        width=args.width,
        seed=args.seed,
        chain_prob=args.chain_prob,
        skip_prob=args.skip_prob,
        adversarial=args.adversarial,
        lib=_read_input(args.lib, parse_library) if args.lib else None,
    )
    text = serialize_circuit(circuit)
    if args.out and args.out != "-":
        _write_output(args.out, lambda fh: fh.write(text))
    else:
        # Under -u the byte stream is the raw file: a write cut short by a closed
        # pipe takes part of the bytes, and the text layer would drop the rest.
        sys.stdout.flush()
        out, data = sys.stdout.buffer, memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[out.write(data):]
    return EXIT_OK


def _preset_config(name: str, max_skip: int) -> OptimizationConfig:
    base = OptimizationConfig(priority_mode="lexicographic", max_skip=max_skip)
    if name == "table1b":
        return base._replace(s_min=5.0)
    if name == "table1c":
        return base._replace(priority=("period", "slack", "latency"))
    return base  # table1a, and table3, which runs table1a's config


def _sweep_line(tag: str, sched, slacks, saved: str) -> str:
    ms = "n/a" if slacks.min_slack is None else f"{slacks.min_slack:.2f}"
    return f"{tag:<14} {1000.0 / sched.period:>11.3f} {sched.latency:>13.2f} {ms:>15} {saved:>14}"


def cmd_sweep(args) -> int:
    names = [p.strip() for p in (args.configs or "").split(",") if p.strip()]
    if not names:
        print("sweep requires --configs with at least one preset", file=sys.stderr)
        return EXIT_INPUT
    unknown = [p for p in names if p not in PRESETS]
    if unknown:
        print(f"unknown presets: {', '.join(unknown)} (choose from {', '.join(PRESETS)})", file=sys.stderr)
        return EXIT_INPUT
    configs = {name: _preset_config(name, args.max_skip) for name in names}
    _load_now(solver, bufferopt if "table3" in names else None)
    circuit, lib = _load_inputs(args)
    # Each distinct config is solved once on the parsed circuit; table3's
    # baseline is table1a's run, paired with one run after buffer removal.
    distinct = list(dict.fromkeys(configs.values()))
    _, outcomes = _schedule([circuit], lib, distinct, False, {})
    solved = dict(zip(distinct, outcomes))

    header = f"{'config':<14} {'freq (GHz)':>11} {'latency (ps)':>13} {'min slack (ps)':>15} {'buffers saved':>14}"
    lines = [header, "-" * len(header)]
    results = []
    removal = None
    for name in names:
        runs = [solved[configs[name]]]
        if name == "table3" and not isinstance(runs[0], InfeasibleScheduleError):
            if removal is None:  # made when the first table3 row is reached
                removal = _schedule([circuit], lib, [configs[name]], True, {})
            plan, [skip_run] = removal
            runs.append(skip_run)
        err = next((r for r in runs if isinstance(r, InfeasibleScheduleError)), None)
        if err is not None:
            log.warning("preset %s failed: %s", name, err)
            lines.append(f"{name:<14} {'infeasible':>11} {'-':>13} {'-':>15} {'-':>14}")
            results.append({"config": name, "error": [str(d) for d in err.diagnostics]})
            continue
        if name != "table3":
            [(sched, slacks)] = runs
            lines.append(_sweep_line(name, sched, slacks, "-"))
            results.append({"config": name, "frequency_ghz": 1000.0 / sched.period,
                            "latency_ps": sched.latency, "min_slack_ps": slacks.min_slack})
            continue
        (base_sched, base_slacks), (ps_sched, ps_slacks) = runs
        saved_pct = 100.0 * plan.buffers_removed / plan.buffers_total if plan.buffers_total else 0.0
        freq0, freq1 = 1000.0 / base_sched.period, 1000.0 / ps_sched.period
        dfreq = 100.0 * (freq1 - freq0) / freq0
        dlat = (
            100.0 * (ps_sched.latency - base_sched.latency) / base_sched.latency
            if base_sched.latency
            else 0.0
        )
        lines.append(_sweep_line("baseline", base_sched, base_slacks, "-"))
        lines.append(_sweep_line("phase-skip", ps_sched, ps_slacks, f"{saved_pct:.1f}%"))
        lines.append(f"{'change':<14} {dfreq:>10.1f}% {dlat:>12.1f}% {'':>15} {saved_pct:>13.1f}%")
        results.append(
            {
                "config": name,
                "baseline": {"frequency_ghz": freq0, "latency_ps": base_sched.latency,
                             "min_slack_ps": base_slacks.min_slack},
                "phase_skipping": {"frequency_ghz": freq1, "latency_ps": ps_sched.latency,
                                   "min_slack_ps": ps_slacks.min_slack},
                "frequency_change_pct": dfreq,
                "latency_change_pct": dlat,
                "buffers_saved_pct": saved_pct,
            }
        )

    print("\n".join(lines))
    if args.out:
        doc = {"circuit": circuit.name, "results": results}
        _write_output(args.out, lambda fh: fh.write(json.dumps(doc, indent=2) + "\n"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_common_solver_flags(sp) -> None:
    sp.add_argument("--priority", type=_parse_priority, default=("period", "latency", "slack"),
                    help="lexicographic criterion order, e.g. period,latency,slack")
    sp.add_argument("--tau", type=float, default=None, help="period weight (enables weighted mode)")
    sp.add_argument("--sigma", type=float, default=None, help="slack weight (enables weighted mode)")
    sp.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="latency weight (enables weighted mode)")
    sp.add_argument("--smin", type=float, default=0.0, help="minimum slack in ps")
    sp.add_argument("--smax", type=float, default=50.0, help="maximum rewarded slack in ps")
    sp.add_argument("--tmin", type=float, default=None, help="period lower bound override in ps")
    sp.add_argument("--tmax", type=float, default=None, help="period upper bound override in ps")
    sp.add_argument("--hold-mode", choices=("reset-delay", "dlplace"), default="reset-delay",
                    help="hold window model: true reset delay, or the full period")
    sp.add_argument("--max-skip", type=int, default=2,
                    help="largest row span a connection may cover")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqfpopt",
        description="Post-routing clock-delay scheduling and buffer removal for "
        "delay-line-clocked AQFP circuits.",
    )
    parser.add_argument("--version", action="version", version=f"aqfpopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("optimize", help="compute a timing-closed clock-delay schedule")
    sp.add_argument("--circuit", required=True, help="circuit file (*.qc.json)")
    sp.add_argument("--lib", required=True, help="cell library file (*.qlib.json)")
    sp.add_argument("--remove-buffers", action="store_true",
                    help="run globally optimal buffer removal before scheduling")
    sp.add_argument("--out", default=None, help="write the report JSON here")
    sp.add_argument("--verbose", action="store_true", help="include per-connection detail")
    _add_common_solver_flags(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("verify", help="re-check a stored schedule against the raw timing rules")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--lib", required=True)
    sp.add_argument("--schedule", required=True, help="report file produced by optimize")
    sp.add_argument("--hold-mode", choices=("reset-delay", "dlplace"), default="reset-delay",
                    help="hold model when the report manifest does not record one")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("gen", help="emit a synthetic benchmark circuit")
    sp.add_argument("--rows", type=int, required=True)
    sp.add_argument("--width", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--chain-prob", type=float, default=0.0,
                    help="per-row probability of inserting a buffer chain")
    sp.add_argument("--skip-prob", type=float, default=0.0,
                    help="per-row probability of a phase-skipping connection")
    sp.add_argument("--adversarial", action="store_true",
                    help="disable the schedulability guarantee")
    sp.add_argument("--lib", default=None, help="library whose envelope the generator targets")
    sp.add_argument("--out", default="-", help="output path, or - for stdout")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("sweep", help="compare optimizer configurations on one circuit")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--lib", required=True)
    sp.add_argument("--configs", required=True,
                    help=f"comma-separated presets from: {', '.join(PRESETS)}")
    sp.add_argument("--max-skip", type=int, default=2)
    sp.add_argument("--out", default=None, help="write the comparison JSON here")
    sp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    log.level = LOG_LEVELS.get(os.environ.get("QPRO_LOG", "warn").lower(), LOG_LEVELS["warn"])
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code else EXIT_OK
    # Nearly all a command allocates lives until it returns, so cyclic
    # collection passes would only cost time. The caller's setting is restored.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except InfeasibleScheduleError as e:
        return _fail(e.diagnostics, EXIT_INFEASIBLE)
    except ValidationError as e:
        return _fail(e.diagnostics)
    finally:
        if gc_was_enabled:
            gc.enable()


def _stdout_closed() -> int:
    """The exit code once the reader of stdout has closed the pipe. Whatever
    stdout still holds goes to the null device; the diagnostic goes to stderr
    unless that pipe is closed too."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, sys.stdout.fileno())
    try:
        return _fail([Diagnostic("IO_ERROR", "stdout", "the reader closed the pipe")])
    except BrokenPipeError:
        os.dup2(null, sys.stderr.fileno())
        return EXIT_INPUT
    finally:
        os.close(null)


def run() -> NoReturn:
    """Run ``main`` as a process and end it without interpreter teardown.

    This is the ``aqfpopt`` console script and ``python -m aqfpopt.cli``.
    After ``main`` returns, the ``atexit`` handlers run and stdout and stderr
    are flushed, as at a normal exit; then ``os._exit`` skips the teardown,
    which frees every object one by one. A closed stdout pipe ends in an
    ``IO_ERROR`` diagnostic and exit 1, without a traceback.
    """
    try:
        code = main()
    except BrokenPipeError:
        code = _stdout_closed()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _stdout_closed()
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
