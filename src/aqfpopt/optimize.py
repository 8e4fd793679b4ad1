"""The ``optimize`` subcommand and the schedule pipeline it shares with ``sweep``.

``main`` imports this module only for ``optimize`` and ``sweep``, so the
other commands never compile it.
"""

from __future__ import annotations

import time

# Calls go through the modules, as ``solver.optimize_schedule``, so a function
# swapped in on its module after this import is the one called. Under ``main``
# the solver and bufferopt are lazy modules, whose code runs at their first use.
from aqfpopt import __version__, bufferopt, solver, timing
from aqfpopt.ingest import emit_report, load_inputs, render_report_table, serialize_report, write_output
from aqfpopt.model import Diagnostic, InfeasibleScheduleError, OptimizationConfig


def _load_now(*modules) -> None:
    """Run the code of each lazy module now; None entries are skipped. A
    command that needs a module does this before it reads its inputs, so the
    compile's transient memory is freed before the parsed circuit is built,
    not stacked on top of it."""
    for module in modules:
        if module is not None:
            vars(module)  # any attribute lookup runs a lazy module's code


def _config_from_args(args, **preset) -> OptimizationConfig:
    """The config of the solver flags given, over ``preset`` and the field defaults.
    A flag left out is no attribute of ``args``; a weight given selects weighted mode."""
    given = {name: value for name, value in vars(args).items() if name in OptimizationConfig._fields}
    if given.keys() & {"tau", "sigma", "lam"}:
        given["priority_mode"] = "weighted"
    return OptimizationConfig(**{**preset, **given})


def _manifest(args, cfg, remove_flag, timings, summary) -> dict:
    return {
        "inputs": {"circuit": str(args.circuit), "lib": str(args.lib)},
        "config": {**cfg._asdict(), "priority": list(cfg.priority), "remove_buffers": remove_flag},
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
    del tcs  # the STA reads the circuit, not the constraint columns

    t0 = time.perf_counter()
    outcomes = [
        s if isinstance(s, InfeasibleScheduleError) else (s, timing.sta_check(circuit, lib, s, cfg.hold_mode))
        for s, cfg in zip(solved, configs)
    ]
    timings["verify"] = time.perf_counter() - t0
    return plan, outcomes


def cmd_optimize(args) -> None:
    _load_now(solver, bufferopt if args.remove_buffers else None)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    circuit, lib = load_inputs(args.circuit, args.lib)
    timings["parse"] = time.perf_counter() - t0
    cfg = _config_from_args(args)
    # The report is written from the STA columns, so the pipeline gets the
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
        write_output(args.out, lambda fh: serialize_report(report, fh))
    print(render_report_table(report))
    if args.verbose:
        for src, dst, setup, hold in zip(*slacks.entries.columns()):
            print(f"{src} -> {dst}: setup {setup:.4g} ps, hold {hold:.4g} ps")
    if slacks.failing():
        # The report and table stay written, so the failing schedule can be read.
        raise InfeasibleScheduleError([Diagnostic("STA_VIOLATION", "schedule",
                                                  f"min slack {slacks.min_slack:.6g} ps")])
