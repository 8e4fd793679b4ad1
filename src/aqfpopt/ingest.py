"""Parsing and serialization of the circuit, library and report file formats.

All three formats are versioned JSON documents (``"format_version": 1``).
Circuit files use the ``.qc.json`` suffix, libraries ``.qlib.json`` and
reports ``.report.json`` by convention. Unknown keys are rejected so typos
fail loudly instead of silently dropping timing data.

The parsers check the shape of a document: its keys, JSON types and finite
numbers. What the content means is checked by ``validate_circuit`` and
``validate_library`` in :mod:`aqfpopt.model`.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Optional

from aqfpopt.model import (
    CellLibrary,
    CellTiming,
    Circuit,
    Connection,
    Diagnostic,
    Gate,
    PiecewiseLinear,
    Schedule,
    ValidationError,
    log,
    validate_library,
)

FORMAT_VERSION = 1


def _is_int(v) -> bool:
    return type(v) is int  # a JSON true or false decodes to a bool


def _is_number(v) -> bool:
    """A JSON number that converts to a float; NaN and +-Infinity included."""
    return type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max)


def _is_finite(v) -> bool:
    # False for NaN, +-Infinity and integers too large for a float.
    return (type(v) is float or type(v) is int) and abs(v) <= sys.float_info.max


# Expected type of each field: a predicate and how a diagnostic names it.
_STRING = (lambda v: isinstance(v, str), "a string")
_INT = (_is_int, "an integer")
_FINITE = (_is_finite, "a finite number")
_OBJECTS = (  # checked per distinct entry type, in one C-level pass over the entries
    lambda v: isinstance(v, list) and all(issubclass(t, (Connection, Gate, dict)) for t in set(map(type, v))),
    "a list of objects",
)

_CIRCUIT_TYPES = {
    "name": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "num_rows": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "gates": _OBJECTS,
    "connections": _OBJECTS,
}
_CIRCUIT_KEYS = {"format_version", *_CIRCUIT_TYPES}
_GATE_TYPES = {"id": _STRING, "cell": _STRING, "row": _INT, "clock_offset_ps": _FINITE}
_CONN_TYPES = {
    "src": _STRING,
    "dst": _STRING,
    "length_um": _FINITE,
    "prop_ps": (lambda v: v is None or _is_finite(v), "a finite number or null"),
}
_CONN_REQUIRED = ("src", "dst", "length_um")
_GATE_KEYS = ("id", "cell", "row", "clock_offset_ps")  # the file keys of each record field
_CONN_KEYS = ("src", "dst", "length_um", "prop_ps")
_LIBRARY_TYPES = {
    "l_max_drive_um": _FINITE,
    "l_buffer_um": _FINITE,
    "prop_ps_per_um": _FINITE,
    "max_frequency_ghz": _FINITE,
    "t_min_ps": _FINITE,
    "t_max_ps": _FINITE,
    "breakpoints_ps": (lambda v: isinstance(v, list) and all(map(_is_finite, v)), "a list of finite numbers"),
    "cells": (lambda v: isinstance(v, dict), "an object"),
}
_LIBRARY_KEYS = {"format_version", *_LIBRARY_TYPES}
_CELL_FUNCTIONS = ("c2q", "setup", "hold", "rd")
# The report fields ``verify`` reads. Row deltas may be non-finite: the STA
# counts every connection such a delta touches as failing.
_REPORT_TYPES = {
    "period_ps": (lambda v: _is_finite(v) and v > 0, "a finite number > 0"),
    "latency_ps": _FINITE,
    "slack_ps": _FINITE,
    "segment_index": _INT,
    "row_deltas_ps": (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers"),
    "manifest": (lambda v: v is None or isinstance(v, dict), "an object or null"),
}
_REPORT_CONFIG_TYPES = {
    "remove_buffers": (lambda v: isinstance(v, bool), "a boolean"),
    "max_skip": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "hold_mode": (lambda v: v in ("reset-delay", "dlplace"), "reset-delay or dlplace"),
}
_REPORT_KEYS = {
    "format_version",
    "frequency_ghz",
    "min_slack_ps",
    "buffers_total",
    "buffers_removed",
    "connections",
    "chains",
    *_REPORT_TYPES,
}


class CircuitFormatError(ValidationError):
    pass


class LibraryFormatError(ValidationError):
    pass


class ReportFormatError(ValidationError):
    pass


def _load_document(source, exc_type, pairs_hook=None) -> dict:
    """Decode ``source``: JSON text, a readable text file or a decoded dict.

    A file is read and decoded here, so its text is freed on return. The
    key-value pairs of each decoded object, a dict document's too, are
    passed to ``pairs_hook``; in JSON text a repeated key appears as often
    as it is spelled.
    """
    if isinstance(source, dict):
        if pairs_hook is None:
            return source
        return _object(_mapped(source, lambda v: pairs_hook(v.items()) if type(v) is dict else v))
    try:
        doc = (json.load if hasattr(source, "read") else json.loads)(source, object_pairs_hook=pairs_hook)
    except json.JSONDecodeError as e:
        raise exc_type([Diagnostic("PARSE_ERROR", f"line {e.lineno}", e.msg)]) from e
    doc = _object(doc)  # the top-level object too may spell an entry
    if not isinstance(doc, dict):
        raise exc_type([Diagnostic("PARSE_ERROR", "document", "top level must be an object")])
    return doc


def _mapped(v, f):
    """``v`` with ``f`` applied to each object and record in it, innermost first and in document order."""
    if type(v) is list:
        return [_mapped(x, f) for x in v]
    if type(v) is dict:
        v = {key: _mapped(x, f) for key, x in v.items()}
    return f(v) if type(v) in (dict, Gate, Connection) else v


def _object(v):
    """The object that a record was decoded from; any other value as it is."""
    if type(v) is Gate or type(v) is Connection:
        return dict(zip(_GATE_KEYS if type(v) is Gate else _CONN_KEYS, v if v[-1] is not None else v[:3]))
    return v


def _check_keys(doc: dict, allowed, entity: str, errs: list) -> None:
    for key in sorted(doc.keys() - allowed):
        errs.append(Diagnostic("UNKNOWN_KEY", entity, f"unexpected key {key!r}"))


def _check_version(doc: dict, entity: str, errs: list) -> None:
    if doc.get("format_version") != FORMAT_VERSION:
        got = _mapped(doc.get("format_version"), _object)  # as decoded, without records
        message = f"expected format_version {FORMAT_VERSION}, got {got!r}"
        errs.append(Diagnostic("BAD_FORMAT_VERSION", entity, message))


def _check_types(doc: dict, types: dict, entity: str, errs: list) -> bool:
    """Report each present field of ``doc`` whose value fails its type."""
    bad = [key for key, (ok, _) in types.items() if key in doc and not ok(doc[key])]
    for key in bad:
        errs.append(Diagnostic("PARSE_ERROR", entity, f"{key} must be {types[key][1]}"))
    return not bad


def _check_missing(doc: dict, required, entity: str, errs: list) -> bool:
    missing = [key for key in required if key not in doc]
    if missing:
        errs.append(Diagnostic("PARSE_ERROR", entity, f"missing keys {sorted(missing)}"))
    return not missing


def _entry_ok(entry: dict, types: dict, required, entity: str, errs: list) -> bool:
    """Check one gate or connection entry against its type table."""
    _check_keys(entry, types, entity, errs)
    return _check_missing(entry, required, entity, errs) and _check_types(entry, types, entity, errs)


def parse_circuit(source) -> Circuit:
    """Parse a circuit document (JSON text, a readable text file or a decoded dict).

    This pass checks the shape only: keys, JSON types (string ids, cells and
    endpoints, integer rows, lists of objects) and finite numbers. It raises
    :class:`CircuitFormatError` with one diagnostic per finding. What the
    content means is checked by ``validate_circuit``, which every command
    runs next: unique ids, known cells and endpoints, rows in range and
    increasing along every connection, and drivable lengths.

    The records are built inside the JSON decoder, so the decoded objects
    never pile up. The decoder makes a ``Gate`` or ``Connection`` of each
    object that the record turns back into exactly: keys in field order,
    each spelled once (``prop_ps`` absent or a float), string ids, an
    integer row and finite floats. Any other entry, and a record found
    outside its own list, is checked as that object against the type
    tables, which build a valid entry's record or name what is wrong with
    it. The entry lists are walked only if they hold such entries.

    Each distinct cell name and gate id is one object, shared by the
    endpoints naming that gate if ``gates`` precedes ``connections``.
    """
    fmax = sys.float_info.max
    shared: dict[str, str] = {}
    new = tuple.__new__  # makes a record without a call to its Python-level __new__

    def record(pairs):
        # A canonical entry costs one length test, one comparison of its
        # keys, tuple unpacking and the type checks.
        n = len(pairs)
        if n == 4:
            (k0, v0), (k1, v1), (k2, v2), (k3, v3) = pairs
            keys = (k0, k1, k2, k3)
            if keys == _CONN_KEYS:
                if type(v0) is str and type(v1) is str and type(v2) is float and -fmax <= v2 <= fmax \
                        and type(v3) is float and -fmax <= v3 <= fmax:
                    return new(Connection, (shared.get(v0, v0), shared.get(v1, v1), v2, v3))
            elif keys == _GATE_KEYS:
                if type(v0) is str and type(v1) is str and type(v2) is int and type(v3) is float \
                        and -fmax <= v3 <= fmax:
                    return new(Gate, (shared.setdefault(v0, v0), shared.setdefault(v1, v1), v2, v3))
        elif n == 3:
            (k0, v0), (k1, v1), (k2, v2) = pairs
            if (k0, k1, k2) == _CONN_REQUIRED and type(v0) is str and type(v1) is str \
                    and type(v2) is float and -fmax <= v2 <= fmax:
                return new(Connection, (shared.get(v0, v0), shared.get(v1, v1), v2, None))
        # A repeated key keeps its last value at its first place, as in
        # json.loads; such an entry goes through the type tables.
        return dict(pairs)

    doc = _load_document(source, CircuitFormatError, record)
    errs: list[Diagnostic] = []
    _check_version(doc, "circuit", errs)
    _check_keys(doc, _CIRCUIT_KEYS, "circuit", errs)
    _check_missing(doc, ("name", "num_rows"), "circuit", errs)
    if not _check_types(doc, _CIRCUIT_TYPES, "circuit", errs):
        raise CircuitFormatError(errs)

    # Lists of records alone, the common case, are taken as they are.
    gates = doc.get("gates", [])
    if set(map(type, gates)) - {Gate}:
        gates = []
        for i, entry in enumerate(doc["gates"]):
            if type(entry) is not Gate:
                entry = _object(entry)
                gid, cell = entry.get("id"), entry.get("cell")
                if not _entry_ok(entry, _GATE_TYPES, _GATE_TYPES,
                                 gid if isinstance(gid, str) else f"gates[{i}]", errs):
                    continue
                entry = Gate(shared.setdefault(gid, gid), shared.setdefault(cell, cell), entry["row"],
                             float(entry["clock_offset_ps"]))
            gates.append(entry)
    connections = doc.get("connections", [])
    if set(map(type, connections)) - {Connection}:
        connections = []
        for i, entry in enumerate(doc["connections"]):
            if type(entry) is not Connection:
                entry = _object(entry)
                if not _entry_ok(entry, _CONN_TYPES, _CONN_REQUIRED, f"connections[{i}]", errs):
                    continue
                src, dst, prop = entry["src"], entry["dst"], entry.get("prop_ps")
                entry = Connection(shared.get(src, src), shared.get(dst, dst), float(entry["length_um"]),
                                   None if prop is None else float(prop))
            connections.append(entry)
    if errs:
        raise CircuitFormatError(errs)
    return Circuit(name=doc["name"], num_rows=doc["num_rows"], gates=gates, connections=connections)


def _field_tokens(records) -> list[list[str]]:
    """The JSON token of every field value of ``records``, one list per field.

    Each field column takes one call to the C encoder, with a newline between
    items. ``ensure_ascii`` escapes every newline inside a string, so each
    newline in the output separates two tokens.
    """
    return [json.dumps(column, separators=("\n", ": "))[1:-1].split("\n") for column in zip(*records)]


def _indented_list(key: str, items: list[str]) -> str:
    if not items:
        return f'  "{key}": []'
    return f'  "{key}": [\n' + ",\n".join(items) + "\n  ]"


def serialize_circuit(c: Circuit) -> str:
    """The circuit document, byte for byte as ``json.dumps(doc, indent=2)`` writes it.

    An indent forces CPython's pure-Python encoder, which takes about three
    times as long on a large circuit. Here the C encoder spells the tokens
    and fixed indent-2 templates lay them out.
    """
    gates = [
        f'    {{\n      "id": {gid},\n      "cell": {cell},\n      "row": {row},\n'
        f'      "clock_offset_ps": {offset}\n    }}'
        for gid, cell, row, offset in zip(*_field_tokens(c.gates))
    ]
    connections = [
        # A connection without an extracted delay has no prop_ps key.
        f'    {{\n      "src": {src},\n      "dst": {dst},\n      "length_um": {length}\n    }}'
        if prop == "null"
        else f'    {{\n      "src": {src},\n      "dst": {dst},\n      "length_um": {length},\n'
        f'      "prop_ps": {prop}\n    }}'
        for src, dst, length, prop in zip(*_field_tokens(c.connections))
    ]
    return "".join((
        f'{{\n  "format_version": {FORMAT_VERSION},\n  "name": {json.dumps(c.name)},\n',
        f'  "num_rows": {json.dumps(c.num_rows)},\n',
        _indented_list("gates", gates),
        ",\n",
        _indented_list("connections", connections),
        "\n}\n",
    ))


def _parse_pwl(entry, breakpoints, entity, errs) -> Optional[PiecewiseLinear]:
    if not isinstance(entry, list) or not all(
        isinstance(seg, list) and len(seg) == 2 and all(map(_is_finite, seg)) for seg in entry
    ):
        errs.append(
            Diagnostic("PARSE_ERROR", entity, "expected a list of [slope, intercept] pairs of finite numbers")
        )
        return None
    try:
        return PiecewiseLinear(breakpoints, tuple((s, i) for s, i in entry))
    except ValidationError as e:
        errs.extend(
            Diagnostic(d.code, entity, d.message, d.severity) for d in e.diagnostics
        )
        return None


def parse_library(source) -> CellLibrary:
    """Parse a cell-library document, then validate what it means.

    The parse checks the shape: keys, JSON types and finite numbers, and one
    list of ``[slope, intercept]`` pairs per cell function, which
    ``PiecewiseLinear`` checks against the breakpoints. Shape errors raise
    :class:`LibraryFormatError`. ``validate_library`` then checks the
    content; its errors raise :class:`LibraryFormatError` as well, and its
    warnings (reset delay reaching the period, segment discontinuities) are
    logged once here, so callers need not re-run it.
    """
    doc = _load_document(source, LibraryFormatError)
    errs: list[Diagnostic] = []
    _check_version(doc, "library", errs)
    _check_keys(doc, _LIBRARY_KEYS, "library", errs)
    if not (
        _check_missing(doc, _LIBRARY_KEYS, "library", errs)
        and _check_types(doc, _LIBRARY_TYPES, "library", errs)
    ):
        raise LibraryFormatError(errs)
    breakpoints = tuple(float(b) for b in doc["breakpoints_ps"])
    cells: dict[str, CellTiming] = {}
    for name, entry in doc["cells"].items():
        if not isinstance(entry, dict):
            errs.append(Diagnostic("PARSE_ERROR", name, "cell entry must be an object"))
            continue
        _check_keys(entry, _CELL_FUNCTIONS, name, errs)
        if not _check_missing(entry, _CELL_FUNCTIONS, name, errs):
            continue
        fns = {
            fname: _parse_pwl(entry[fname], breakpoints, f"{name}.{fname}", errs)
            for fname in _CELL_FUNCTIONS
        }
        if all(v is not None for v in fns.values()):
            cells[name] = CellTiming(**fns)
    if errs:
        raise LibraryFormatError(errs)
    lib = CellLibrary(
        cells=cells,
        breakpoints=breakpoints,
        l_max_drive=float(doc["l_max_drive_um"]),
        l_buffer=float(doc["l_buffer_um"]),
        prop_per_um=float(doc["prop_ps_per_um"]),
        t_min=float(doc["t_min_ps"]),
        t_max=float(doc["t_max_ps"]),
        max_frequency=float(doc["max_frequency_ghz"]),
    )
    diags = validate_library(lib)
    hard = [d for d in diags if d.severity == "error"]
    if hard:
        raise LibraryFormatError(hard)
    for d in diags:
        log.warning("%s", d)
    return lib


def serialize_library(lib: CellLibrary) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "l_max_drive_um": lib.l_max_drive,
        "l_buffer_um": lib.l_buffer,
        "prop_ps_per_um": lib.prop_per_um,
        "max_frequency_ghz": lib.max_frequency,
        "t_min_ps": lib.t_min,
        "t_max_ps": lib.t_max,
        "breakpoints_ps": list(lib.breakpoints),
        "cells": {
            name: {
                fname: [[s, i] for s, i in fn.segments]
                for fname, fn in cell.functions().items()
            }
            for name, cell in lib.cells.items()
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_report(
    schedule: Schedule,
    slacks=None,
    stats=None,
    manifest: Optional[dict] = None,
    verbose: bool = False,
) -> dict:
    """Assemble the report document for a feasible schedule.

    ``slacks`` is the :class:`aqfpopt.timing.SlackReport` of the final
    schedule (or None for a connection-free circuit); ``stats`` the
    buffer-removal plan, if removal ran. The document's ``connections`` are
    the STA's ``ConnectionSlack`` records; ``serialize_report`` writes each
    as a ``src``/``dst``/``setup_slack_ps``/``hold_slack_ps`` object.
    """
    period = schedule.period
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "frequency_ghz": 1000.0 / period,
        "period_ps": period,
        "latency_ps": schedule.latency,
        "slack_ps": schedule.slack,
        "min_slack_ps": None if slacks is None else slacks.min_slack,
        "segment_index": schedule.segment_index,
        "row_deltas_ps": list(schedule.row_deltas),
        "buffers_total": 0 if stats is None else stats.buffers_total,
        "buffers_removed": 0 if stats is None else stats.buffers_removed,
        "connections": [] if slacks is None else list(slacks.entries),
    }
    if verbose and stats is not None:
        doc["chains"] = [
            {
                "source": ch.source,
                "sink": ch.sink,
                "kept_nodes": list(ch.kept_nodes),
                "removed_gate_ids": list(ch.removed_gate_ids),
            }
            for ch in stats.chains
        ]
    doc["manifest"] = manifest if manifest is not None else {}
    return doc


#: Connections encoded per batch: the writer holds one batch's text at a time.
REPORT_BATCH = 4096


def serialize_report(report: dict, out) -> None:
    """Write the report document to the text stream ``out``.

    The bytes equal ``json.dumps(doc)`` and a newline, where ``doc`` holds
    one object per connection; but neither those objects nor a string of
    the whole report is ever built. The connections are encoded in batches
    of ``REPORT_BATCH``, one C encoder call per field column, as in
    ``serialize_circuit``. No indent, since reports run to megabytes.
    """
    head = {key: value for key, value in report.items() if key not in ("connections", "chains", "manifest")}
    out.write(json.dumps(head)[:-1] + ', "connections": [')
    connections = report["connections"]
    for start in range(0, len(connections), REPORT_BATCH):
        tokens = _field_tokens(connections[start:start + REPORT_BATCH])
        out.write((", " if start else "") + ", ".join(
            f'{{"src": {src}, "dst": {dst}, "setup_slack_ps": {setup}, "hold_slack_ps": {hold}}}'
            for src, dst, setup, hold in zip(*tokens)
        ))
    out.write("]")
    for key in ("chains", "manifest"):
        if key in report:
            out.write(f', "{key}": {json.dumps(report[key])}')
    out.write("}\n")


def parse_report(source) -> dict:
    """Parse a report document and check the shape of what ``verify`` reads.

    The period, latency and slack must be finite numbers, the period also
    positive; ``segment_index`` an integer; ``row_deltas_ps`` a list of
    numbers. The manifest's ``config`` entries that ``verify`` re-applies
    (``remove_buffers``, ``max_skip``, ``hold_mode``) are type-checked too.
    """
    doc = _load_document(source, ReportFormatError)
    errs: list[Diagnostic] = []
    _check_version(doc, "report", errs)
    _check_keys(doc, _REPORT_KEYS, "report", errs)
    _check_missing(doc, _REPORT_KEYS - {"chains", "manifest"}, "report", errs)
    _check_types(doc, _REPORT_TYPES, "report", errs)
    manifest = doc.get("manifest")
    if isinstance(manifest, dict):
        config = manifest.get("config", {})
        if isinstance(config, dict):
            _check_types(config, _REPORT_CONFIG_TYPES, "manifest.config", errs)
        else:
            errs.append(Diagnostic("PARSE_ERROR", "manifest", "config must be an object"))
    if errs:
        raise ReportFormatError(errs)
    return doc


def schedule_from_report(report: dict) -> Schedule:
    return Schedule(
        period=float(report["period_ps"]),
        row_deltas=tuple(float(d) for d in report["row_deltas_ps"]),
        slack=float(report["slack_ps"]),
        latency=float(report["latency_ps"]),
        segment_index=int(report["segment_index"]),
    )


def render_report_table(report: dict) -> str:
    """Aligned human-readable summary of a report document."""
    rows = [
        ("frequency", f"{report['frequency_ghz']:.4g} GHz"),
        ("period", f"{report['period_ps']:.4g} ps"),
        ("latency", f"{report['latency_ps']:.6g} ps"),
        ("slack (solved)", f"{report['slack_ps']:.6g} ps"),
        (
            "min slack (STA)",
            "n/a" if report["min_slack_ps"] is None else f"{report['min_slack_ps']:.6g} ps",
        ),
        ("active segment", str(report["segment_index"])),
        ("buffers removed", f"{report['buffers_removed']} / {report['buffers_total']}"),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)
