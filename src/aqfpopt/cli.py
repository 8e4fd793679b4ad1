"""Command-line front end: optimize, verify, gen and sweep subcommands.

Exit codes are stable across commands: 0 success, 1 usage or input errors,
2 infeasible schedule or solver breakdown, 3 verification failure. The ``QPRO_LOG`` environment
variable (error, warn, info, debug) controls diagnostic verbosity.

This module holds the parser, the shared plumbing and ``optimize``. Each
other command lives in its own module (``aqfpopt.verify``, ``aqfpopt.generator``,
``aqfpopt.sweep``), which ``main`` imports only when that command runs.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib.util
import os
import sys
import time
from importlib import resources
from typing import NoReturn

from aqfpopt import __version__, timing
from aqfpopt.ingest import (
    emit_report,
    parse_circuit,
    parse_library,
    render_report_table,
    serialize_report,
)
from aqfpopt.model import (
    HOLD_MODES,
    LOG_LEVELS,
    CellLibrary,
    Diagnostic,
    InfeasibleScheduleError,
    OptimizationConfig,
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

#: Built-in sweep presets, each the config fields it sets over the defaults.
#: table1a/1b/1c are single optimizer configurations at different priorities;
#: table3 pairs a baseline run of table1a's config against a buffer-removal
#: run and reports the relative change.
PRESETS = {"table1a": {}, "table1b": {"s_min": 5.0}, "table1c": {"priority": ("period", "slack", "latency")},
           "table3": {}}


def reference_library() -> CellLibrary:
    """The library shipped with the package (uniform cells, 5 GHz limit)."""
    text = resources.files("aqfpopt").joinpath("data/reference.qlib.json").read_text()
    return parse_library(text)


def __getattr__(name: str):
    # ``from aqfpopt.cli import generate_circuit`` is the documented import;
    # it loads aqfpopt.generator, which no other command compiles, on demand.
    if name == "generate_circuit":
        from aqfpopt.generator import generate_circuit

        return generate_circuit
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Shared plumbing


def _fail(diagnostics, code: int = EXIT_INPUT) -> int:
    for d in diagnostics:
        print(str(d), file=sys.stderr)
    return code


def _read_input(path, parse):
    """Open an input file and pass it to ``parse``; an OS error becomes an
    IO_ERROR diagnostic. The parsers read the file themselves, so no caller
    frame keeps its text: ``parse_circuit`` decodes the circuit as it reads
    it in chunks, and the library and report parsers free their text once
    decoded."""
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
    """The criteria of ``text`` in order, if the config takes them as its priority."""
    parts = tuple(p.strip() for p in text.split(","))
    try:
        return OptimizationConfig(priority=parts).priority
    except ValidationError:  # argparse prints this message alone
        raise argparse.ArgumentTypeError("--priority must list period, latency and slack exactly once each")


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


# ---------------------------------------------------------------------------
# Subcommands


def cmd_optimize(args) -> int:
    _load_now(solver, bufferopt if args.remove_buffers else None)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    circuit, lib = _load_inputs(args)
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
        _write_output(args.out, lambda fh: serialize_report(report, fh))
    print(render_report_table(report))
    if args.verbose:
        for src, dst, setup, hold in zip(*slacks.entries.columns()):
            print(f"{src} -> {dst}: setup {setup:.4g} ps, hold {hold:.4g} ps")
    if slacks.failing():
        print(f"schedule fails STA: min slack {slacks.min_slack:.6g} ps", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_common_solver_flags(sp) -> None:
    """Each flag sets its config field and has no default: a flag left out leaves the field's."""
    unset = argparse.SUPPRESS
    sp.add_argument("--priority", type=_parse_priority, default=unset,
                    help="lexicographic criterion order, e.g. period,latency,slack")
    sp.add_argument("--tau", type=float, default=unset, help="period weight (enables weighted mode)")
    sp.add_argument("--sigma", type=float, default=unset, help="slack weight (enables weighted mode)")
    sp.add_argument("--lambda", dest="lam", type=float, default=unset, help="latency weight (enables weighted mode)")
    sp.add_argument("--smin", dest="s_min", type=float, default=unset, help="minimum slack in ps")
    sp.add_argument("--smax", dest="s_max", type=float, default=unset, help="maximum rewarded slack in ps")
    sp.add_argument("--tmin", dest="t_min_override", type=float, default=unset,
                    help="period lower bound override in ps")
    sp.add_argument("--tmax", dest="t_max_override", type=float, default=unset,
                    help="period upper bound override in ps")
    sp.add_argument("--hold-mode", choices=HOLD_MODES, default=unset,
                    help="hold window model: true reset delay, or the full period")
    sp.add_argument("--max-skip", type=int, default=unset, help="largest row span a connection may cover")


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
    sp.set_defaults(func="aqfpopt.verify:cmd_verify")

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
    sp.set_defaults(func="aqfpopt.generator:cmd_gen")

    sp = sub.add_parser("sweep", help="compare optimizer configurations on one circuit")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--lib", required=True)
    sp.add_argument("--configs", required=True,
                    help=f"comma-separated presets from: {', '.join(PRESETS)}")
    sp.add_argument("--max-skip", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--out", default=None, help="write the comparison JSON here")
    sp.set_defaults(func="aqfpopt.sweep:cmd_sweep")
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
        func = args.func
        if isinstance(func, str):  # "module:function", imported only when its command runs
            module, _, name = func.partition(":")
            func = getattr(importlib.import_module(module), name)
        return func(args)
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
    # Under ``python -m`` this module runs as __main__. The command modules
    # import it by name, which would compile and run it a second time.
    sys.modules.setdefault("aqfpopt.cli", sys.modules[__name__])
    run()
