"""Command-line front end: parses the arguments, runs the command and maps
its failure to an exit code.

Exit codes are stable across commands: 0 success, 1 usage or input errors,
2 infeasible schedule or solver breakdown, 3 verification failure. A command
reports a failure by raising :class:`ValidationError` or one of its
subclasses, whose type ``main`` maps to the exit code. The ``QPRO_LOG``
environment variable (error, warn, info, debug) controls diagnostic verbosity.

Each command lives in its own module (``aqfpopt.optimize``, ``aqfpopt.verify``,
``aqfpopt.generator``, ``aqfpopt.sweep``), which ``main`` imports only when
that command runs. No command module imports this one.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib.util
import os
import sys
from typing import NoReturn

# ``perfbench/traced_cli.py`` looks ``timing`` up in ``sys.modules`` right after
# importing this module, so it is loaded here though ``cli`` calls none of it.
from aqfpopt import __version__, timing
# Re-exported: ``perfbench/make_libraries.py`` imports it from here.
from aqfpopt.ingest import reference_library
from aqfpopt.model import (
    HOLD_MODES,
    LOG_LEVELS,
    PRESETS,
    Diagnostic,
    InfeasibleScheduleError,
    OptimizationConfig,
    ValidationError,
    VerificationError,
    log,
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


# ``perfbench/traced_cli.py`` looks these two up in ``sys.modules`` right
# after importing this module. Registered lazily, they compile only in a
# command that calls into them: ``verify`` and ``gen`` never run the solver,
# and only buffer removal runs ``bufferopt``.
_lazy_import("aqfpopt.solver")
_lazy_import("aqfpopt.bufferopt")

#: The exit code of each failure a command raises, by its type; any other
#: ``ValidationError`` is a usage or input error, exit 1.
_EXIT_CODES = {InfeasibleScheduleError: 2, VerificationError: 3}


def _print_diagnostics(diagnostics) -> None:
    for d in diagnostics:
        print(str(d), file=sys.stderr)


def _parse_priority(text: str) -> tuple[str, ...]:
    """The criteria of ``text`` in order, if the config takes them as its priority."""
    parts = tuple(p.strip() for p in text.split(","))
    try:
        return OptimizationConfig(priority=parts).priority
    except ValidationError:  # argparse prints this message alone
        raise argparse.ArgumentTypeError("--priority must list period, latency and slack exactly once each")


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
    sp.set_defaults(func="aqfpopt.optimize:cmd_optimize")

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
        return 1 if e.code else 0
    # Nearly all a command allocates lives until it returns, so cyclic
    # collection passes would only cost time. The caller's setting is restored.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        module, _, name = args.func.partition(":")  # imported only when its command runs
        getattr(importlib.import_module(module), name)(args)
        return 0
    except ValidationError as e:
        _print_diagnostics(e.diagnostics)
        return _EXIT_CODES.get(type(e), 1)
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
        _print_diagnostics([Diagnostic("IO_ERROR", "stdout", "the reader closed the pipe")])
    except BrokenPipeError:
        os.dup2(null, sys.stderr.fileno())
    finally:
        os.close(null)
    return 1


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
