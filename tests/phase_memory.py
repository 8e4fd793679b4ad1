"""Resident memory after each phase of ``optimize`` or ``verify``, in one process.

Usage:
    PYTHONPATH=src python tests/phase_memory.py optimize --circuit C.qc.json --lib L.qlib.json [optimize flags]
    PYTHONPATH=src python tests/phase_memory.py verify --circuit C.qc.json --lib L.qlib.json --schedule R.report.json

Runs the command in process through ``cli.main``, with each phase
function wrapped, wherever an aqfpopt module refers to it, so that when it
returns the script prints the process's resident size (``VmRSS`` from
``/proc/self/status``) and its peak resident size so far (``ru_maxrss`` of
``getrusage``, the figure the benchmark reads for a finished child), in MB
of 2**20 bytes as the benchmark counts them. The phase after which the
peak last rises is the one that sets it. The peak can read up to about
0.1 MB below the resident size printed beside it, as Linux reports the
two from different counters. Any flag of the command may follow;
``optimize`` writes its report, and ``serialize_report`` is marked, only
with ``--out``. ``verify`` marks ``parse_report``, but not buffer removal:
it removes buffers only as its report's manifest says, and a wrap would
load ``bufferopt`` in every run. Set ``PYTHONDONTWRITEBYTECODE=1`` to count
each module's compile as a process that writes no bytecode does. If the reader of stdout closes
the pipe, the script ends as the CLI does, with an ``IO_ERROR`` diagnostic
and exit 1. Linux only; pytest does not collect this file.
"""

import functools
import resource
import sys

#: The phase functions of ``optimize`` and ``verify``, by module.
PHASES = {
    "ingest": ("parse_circuit", "parse_library", "parse_report", "emit_report", "serialize_report"),
    "model": ("validate_circuit",),
    "bufferopt": ("remove_buffers",),
    "timing": ("build_constraints", "sta_check"),
    "solver": ("optimize_schedule",),
}


def status_mb(field: str) -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0  # the file counts kB
    raise KeyError(field)


class StdoutClosed(Exception):
    """The reader of stdout closed the pipe during a mark. It is no OSError,
    so the CLI's file handlers, which turn an OSError raised while they read
    or write into an IO_ERROR of their file, let it through."""


def mark(phase: str) -> None:
    # VmHWM is no running peak: Linux updates it only at some events, such as
    # an unmap, so it can read below a peak already reached.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux counts kB
    try:
        print(f"{phase:<20} rss {status_mb('VmRSS'):7.2f} MB   peak {peak:7.2f} MB", flush=True)
    except BrokenPipeError as e:
        raise StdoutClosed from e


def marked(name: str, fn):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            mark(name)

    return call


def install(modules) -> None:
    """Replace every loaded aqfpopt module's reference to a phase function of ``modules``."""
    wrapped = {}
    for mod_name in modules:
        module = sys.modules[f"aqfpopt.{mod_name}"]
        for name in PHASES[mod_name]:
            fn = getattr(module, name)
            wrapped[id(fn)] = marked(name, fn)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "aqfpopt" or mod_name.startswith("aqfpopt."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and callable(value):
                    setattr(module, attr, wrapped[id(value)])


def main(argv) -> int:
    command = argv[0] if argv else ""
    if command not in ("optimize", "verify"):
        print("usage: phase_memory.py {optimize,verify} [flags]", file=sys.stderr)
        return 2
    mark("interpreter")
    from aqfpopt import cli

    mark("import")
    # A wrap looks a lazy module's function up, which loads it: optimize
    # loads the solver before it reads its inputs, and bufferopt only to
    # remove buffers; verify runs no solver.
    if command == "optimize":
        install([mod for mod in PHASES if mod != "bufferopt" or "--remove-buffers" in argv])
    else:
        install([mod for mod in PHASES if mod not in ("solver", "bufferopt")])
    mark("load modules")
    # main imports the command's module only now, so its names bind the
    # wrapped ingest functions; it calls the solver and bufferopt through
    # their modules.
    return cli.main(argv)


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except (BrokenPipeError, StdoutClosed):
        from aqfpopt import cli

        code = cli._stdout_closed()
    sys.exit(code)
