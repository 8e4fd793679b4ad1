"""Run one aqfpopt CLI command in process, with a span per public-function call.

Usage: python3 perfbench/traced_cli.py SPANS.json <aqfpopt arguments...>

Spans are recorded around the calls that cross module boundaries: the
functions in ``TRACED``, wherever any aqfpopt module refers to them. A span
holds the function's name, its start and end (seconds since this process
started) and the index of the enclosing span (-1 at top level). Spans stay
in memory and are written to SPANS.json when the command ends, together
with the command's exit code. Helpers called per connection (``pwl_eval``,
``delta_clk``) are not traced: at 10^5 calls per run their spans would cost
more than the work they time.
"""

import time

PROCESS_START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

TRACED = {
    "ingest": ("parse_circuit", "parse_library", "parse_report", "emit_report", "serialize_report"),
    "model": ("validate_circuit", "validate_library"),
    "bufferopt": ("remove_buffers",),
    "timing": ("build_constraints", "sta_check"),
    "solver": ("optimize_schedule", "lp_solve"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append({"name": name, "start": time.perf_counter() - PROCESS_START, "end": None,
                           "parent": parent, "attrs": {}})
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span["end"] = time.perf_counter() - PROCESS_START
        self.stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            details = None
            try:
                if name == "solver.optimize_schedule":
                    details = kwargs.pop("details", None)
                    details = {} if details is None else details
                    kwargs["details"] = details
                result = fn(*args, **kwargs)
                span["attrs"] = _attrs(name, args, details, result)
                return result
            finally:
                self.close(span)

        return traced


def _attrs(name, args, details, result):
    """Work counts recorded at the boundary, next to the span's time."""
    if name == "bufferopt.remove_buffers":
        plan = result[1]
        return {"chains": len(plan.chains), "buffers_total": plan.buffers_total,
                "buffers_removed": plan.buffers_removed}
    if name == "timing.build_constraints":
        return {"constraints": len(result.constraints)}
    if name == "solver.lp_solve":
        return {"rows": len(args[0].constraints)}
    if name == "solver.optimize_schedule":
        return {"segments_solved": details.get("segments_solved", 0),
                "fast_path_segments": len(details.get("fast_path_segments", ()))}
    return {}


def install(tracer):
    """Replace every loaded aqfpopt module's reference to a traced function."""
    wrapped = {}
    for mod_name, names in TRACED.items():
        module = sys.modules[f"aqfpopt.{mod_name}"]
        for fname in names:
            fn = getattr(module, fname)
            wrapped[id(fn)] = tracer.wrap(f"{mod_name}.{fname}", fn)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "aqfpopt" and not mod_name.startswith("aqfpopt."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped and callable(value):
                setattr(module, attr, wrapped[id(value)])


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    span = tracer.open("cli.import")
    import aqfpopt.cli

    tracer.close(span)
    install(tracer)
    rc = 1
    try:
        rc = aqfpopt.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"exit_code": rc, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
