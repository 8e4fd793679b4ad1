"""Resident memory after each phase of ``optimize``, in one process.

Usage:
    PYTHONPATH=src python tests/phase_memory.py --circuit C.qc.json --lib L.qlib.json [optimize flags]

Runs ``aqfpopt optimize`` in process through ``cli.main``, with each phase
function wrapped, wherever an aqfpopt module refers to it, so that when it
returns the script prints the process's resident size (``VmRSS``) and its
high-water mark (``VmHWM``) from ``/proc/self/status``, in MB of 2**20
bytes as the benchmark counts them. The phase after which the high-water
mark last rises is the one that sets the peak. Any ``optimize`` flag may
follow; the report is written, and ``serialize_report`` marked, only with
``--out``. Set ``PYTHONDONTWRITEBYTECODE=1`` to count each module's compile
as a process that writes no bytecode does. Linux only; pytest does not
collect this file.
"""

import functools
import sys

#: The phase functions of ``optimize``, by module.
PHASES = {
    "ingest": ("parse_circuit", "parse_library", "emit_report", "serialize_report"),
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


def mark(phase: str) -> None:
    print(f"{phase:<20} rss {status_mb('VmRSS'):7.2f} MB   hwm {status_mb('VmHWM'):7.2f} MB", flush=True)


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
    mark("interpreter")
    from aqfpopt import cli

    mark("import")
    # A wrap looks a lazy module's function up, which loads it: optimize
    # loads the solver before it reads its inputs, and bufferopt only to
    # remove buffers.
    install([mod for mod in PHASES if mod != "bufferopt" or "--remove-buffers" in argv])
    mark("load modules")
    return cli.main(["optimize", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
