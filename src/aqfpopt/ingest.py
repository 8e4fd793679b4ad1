"""Parsing and serialization of the circuit, library and report file formats.

All three formats are versioned JSON documents (``"format_version": 1``).
Circuit files use the ``.qc.json`` suffix, libraries ``.qlib.json`` and
reports ``.report.json`` by convention. Unknown keys are rejected so typos
fail loudly instead of silently dropping timing data.

The parsers check the shape of a document: its keys, and each field against
its rule in :mod:`aqfpopt.model`, the decoded columns of a circuit whole and
any other value as a list of one. What the content means is checked by
``validate_circuit`` and ``validate_library``, there too.
"""

from __future__ import annotations

import json
import operator
from typing import Any, Optional

from aqfpopt.model import (
    FINITE,
    FINITE_OR_NULL,
    INTEGER,
    REAL,
    STRING,
    CellLibrary,
    CellTiming,
    Circuit,
    Connection,
    ConnectionTable,
    Diagnostic,
    Gate,
    GateTable,
    PiecewiseLinear,
    Rule,
    Schedule,
    ValidationError,
    log,
    validate_library,
)

FORMAT_VERSION = 1


def _list_of(holds, text: str) -> Rule:
    """The rule of a field whose value is a list that passes ``holds`` as a whole."""
    return Rule(lambda values: all(type(v) is list and holds(v) for v in values), text)


# The rule of each field. A field that is not a column is checked as a list of one.
_POSITIVE = Rule(lambda v: FINITE.holds(v) and min(v) > 0, "a finite number > 0")
_COUNT = Rule(lambda v: INTEGER.holds(v) and min(v) >= 0, "an integer >= 0")
_OBJECT = Rule(lambda v: set(map(type, v)) <= {dict}, "an object")
_OBJECTS = _list_of(_OBJECT.holds, "a list of objects")

_CIRCUIT_TYPES = {
    "name": Rule(lambda v: STRING.holds(v) and "" not in v, "a non-empty string"),
    "num_rows": Rule(lambda v: INTEGER.holds(v) and min(v) >= 1, "a positive integer"),
    "gates": _OBJECTS,
    "connections": _OBJECTS,
}
# The same checks on a document decoded into columns: each list holds its own kind's marker only.
_CIRCUIT_MARKER_TYPES = {
    **_CIRCUIT_TYPES,
    "gates": _list_of(lambda v: v.count(Gate) == len(v), "a list of gates"),
    "connections": _list_of(lambda v: v.count(Connection) == len(v), "a list of connections"),
}
_CIRCUIT_KEYS = {"format_version", *_CIRCUIT_TYPES}
_GATE_TYPES = {"id": STRING, "cell": STRING, "row": INTEGER, "clock_offset_ps": FINITE}
_CONN_TYPES = {
    "src": STRING,
    "dst": STRING,
    "length_um": FINITE,
    "prop_ps": FINITE_OR_NULL,
}
_GATE_KEYS = tuple(_GATE_TYPES)  # the file keys of each column, in column order
_CONN_KEYS = tuple(_CONN_TYPES)  # of which a key whose value may be null may be left out
_CONN_REQUIRED = tuple(key for key in _CONN_KEYS if _CONN_TYPES[key] is not FINITE_OR_NULL)
_LIBRARY_TYPES = {
    "l_max_drive_um": FINITE,
    "l_buffer_um": FINITE,
    "prop_ps_per_um": FINITE,
    "max_frequency_ghz": FINITE,
    "t_min_ps": FINITE,
    "t_max_ps": FINITE,
    "breakpoints_ps": _list_of(FINITE.holds, "a list of finite numbers"),
    "cells": _OBJECT,
}
_LIBRARY_KEYS = {"format_version", *_LIBRARY_TYPES}
_CELL_FUNCTIONS = ("c2q", "setup", "hold", "rd")
#: The fields of each report connection, in the order the writer puts them.
_SLACK_TYPES = {"src": STRING, "dst": STRING, "setup_slack_ps": REAL, "hold_slack_ps": REAL}
# The report fields ``verify`` reads. Row deltas may be non-finite: the STA
# counts every connection such a delta touches as failing.
_REPORT_TYPES = {
    "frequency_ghz": _POSITIVE,
    "period_ps": _POSITIVE,
    "latency_ps": FINITE,
    "slack_ps": FINITE,
    "min_slack_ps": FINITE_OR_NULL,
    "segment_index": INTEGER,
    "buffers_total": _COUNT,
    "buffers_removed": _COUNT,
    "row_deltas_ps": _list_of(REAL.holds, "a list of numbers"),
    "manifest": Rule(lambda v: set(map(type, v)) <= {dict, type(None)}, "an object or null"),
    "connections": _OBJECTS,
}
_REPORT_CONFIG_TYPES = {"remove_buffers": Rule(lambda v: set(map(type, v)) <= {bool}, "a boolean")}
_REPORT_KEYS = {"format_version", "chains", *_REPORT_TYPES}


def _load_document(source) -> dict:
    """Decode ``source``, JSON text or a readable text file, to its top-level object.

    A file is read and decoded here, so its text is freed on return.
    """
    try:
        doc = (json.load if hasattr(source, "read") else json.loads)(source)
    except json.JSONDecodeError as e:
        raise ValidationError([Diagnostic("PARSE_ERROR", f"line {e.lineno}", e.msg)]) from e
    except (ValueError, RecursionError) as e:  # an integer of over 4300 digits, or nesting too deep
        raise ValidationError([Diagnostic("PARSE_ERROR", "document", str(e))]) from e
    if not isinstance(doc, dict):
        raise ValidationError([Diagnostic("PARSE_ERROR", "document", "top level must be an object")])
    return doc


def _check_keys(doc: dict, allowed, entity: str, errs: list) -> None:
    for key in sorted(doc.keys() - allowed):
        errs.append(Diagnostic("UNKNOWN_KEY", entity, f"unexpected key {key!r}"))


def _check_version(doc: dict, entity: str, errs: list) -> None:
    if doc.get("format_version") != FORMAT_VERSION:
        message = f"expected format_version {FORMAT_VERSION}, got {doc.get('format_version')!r}"
        errs.append(Diagnostic("BAD_FORMAT_VERSION", entity, message))


def _check_types(doc: dict, types: dict, entity: str, errs: list) -> bool:
    """Report each present field of ``doc`` whose value fails its rule."""
    bad = [key for key, rule in types.items() if key in doc and not rule.holds([doc[key]])]
    for key in bad:
        errs.append(Diagnostic("PARSE_ERROR", entity, f"{key} must be {types[key].text}"))
    return not bad


def _check_missing(doc: dict, required, entity: str, errs: list) -> bool:
    missing = [key for key in required if key not in doc]
    if missing:
        errs.append(Diagnostic("PARSE_ERROR", entity, f"missing keys {sorted(missing)}"))
    return not missing


def _check_entry(entry: dict, types: dict, required, entity: str, errs: list) -> None:
    """Check one gate or connection entry against its type table."""
    _check_keys(entry, types, entity, errs)
    if _check_missing(entry, required, entity, errs):
        _check_types(entry, types, entity, errs)


def _check_circuit_header(doc: dict, types: dict, errs: list) -> bool:
    _check_version(doc, "circuit", errs)
    _check_keys(doc, _CIRCUIT_KEYS, "circuit", errs)
    _check_missing(doc, ("name", "num_rows"), "circuit", errs)
    return _check_types(doc, types, "circuit", errs)


def _typed_columns(gates: tuple[list, ...], conns: tuple[list, ...]) -> bool:
    """Whether decoded gate and connection columns pass the rules of their
    fields, each rule applied to a whole column. Integers in a number column
    become floats, and equal rows one int object."""
    rules = (*_GATE_TYPES.values(), *_CONN_TYPES.values())
    if not all(rule.holds(column) for rule, column in zip(rules, (*gates, *conns))):
        return False
    rows = gates[2]
    share = {}.setdefault
    rows[:] = map(share, rows, rows)
    for column in (gates[3], *conns[2:]):  # clock_offset, length and prop
        if int in set(map(type, column)):  # only in a respelled circuit: gen writes floats
            column[:] = [v if v is None else float(v) for v in column]
    return True


def parse_circuit(source) -> Circuit:
    """Parse a circuit document (JSON text or a readable text file) into columns.

    This pass checks the shape only: keys and the rule of each field (string
    ids, cells and endpoints, integer rows, finite numbers, lists of objects).
    It raises :class:`ValidationError` with one diagnostic per finding. What
    the content means is checked by ``validate_circuit``, which every command
    runs next: unique ids, known cells and endpoints, rows in range and
    increasing along every connection, and drivable lengths.

    The circuit's columns are filled inside the JSON decoder, so no object
    per entry piles up. Every object with exactly a gate's keys, or a
    connection's keys with or without ``prop_ps``, puts its values into the
    gate or connection columns, whatever its key order (a repeated key keeps
    its last value, as in ``json.loads``), and decodes to the marker
    ``Gate`` or ``Connection``. After the decode each field's rule checks its
    whole column, and integers in a number column become floats. A marker is
    valid only in its own list, and anywhere else fails a check of the
    document; so a document whose checks pass with markers alone in its
    lists, one per row of its columns, is the circuit. Any other document is
    decoded again without markers, and the same rules, given each entry's
    values as lists of one, name what is wrong with it. If they find nothing,
    a repeated key dropped an entry that had already filled a row, and the
    columns are filled again from the entries the document keeps.

    Each distinct cell name and gate id is one string object, shared by the
    gate and the endpoints naming it, whichever list comes first.
    """
    share = {}.setdefault
    gates: tuple[list, ...] = ([], [], [], [])
    conns: tuple[list, ...] = ([], [], [], [])
    add_id, add_cell, add_row, add_offset = (column.append for column in gates)
    add_src, add_dst, add_length, add_prop = (column.append for column in conns)

    def fill(pairs):
        # An entry as gen spells it costs one length test, one comparison of
        # its keys and tuple unpacking.
        if len(pairs) == 4:
            (k0, v0), (k1, v1), (k2, v2), (k3, v3) = pairs
            keys = (k0, k1, k2, k3)
            if keys == _CONN_KEYS:
                add_src(share(v0, v0))
                add_dst(share(v1, v1))
                add_length(v2)
                add_prop(v3)
                return Connection
            if keys == _GATE_KEYS:
                add_id(share(v0, v0))
                add_cell(share(v1, v1))
                add_row(v2)
                add_offset(v3)
                return Gate
        obj = dict(pairs)  # a repeated key keeps its last value at its first place
        if obj.keys() == _GATE_TYPES.keys():
            gid, cell = obj["id"], obj["cell"]
            add_id(share(gid, gid))
            add_cell(share(cell, cell))
            add_row(obj["row"])
            add_offset(obj["clock_offset_ps"])
            return Gate
        if obj.keys() == _CONN_TYPES.keys() or obj.keys() == set(_CONN_REQUIRED):
            src, dst = obj["src"], obj["dst"]
            add_src(share(src, src))
            add_dst(share(dst, dst))
            add_length(obj["length_um"])
            add_prop(obj.get("prop_ps"))
            return Connection
        return obj

    try:
        text = source.read() if hasattr(source, "read") else source
    except UnicodeDecodeError as e:  # as _load_document names it for the other files
        raise ValidationError([Diagnostic("PARSE_ERROR", "document", str(e))]) from e
    try:
        doc = json.loads(text, object_pairs_hook=fill)
    except (ValueError, RecursionError, TypeError):  # TypeError: an unhashable id, cell or endpoint
        doc = None  # named by the second decode below
    errs: list[Diagnostic] = []
    if type(doc) is dict and _check_circuit_header(doc, _CIRCUIT_MARKER_TYPES, errs) and not errs \
            and len(doc.get("gates", ())) == len(gates[0]) and len(doc.get("connections", ())) == len(conns[0]) \
            and _typed_columns(gates, conns):
        return Circuit(doc["name"], doc["num_rows"], GateTable(*gates), ConnectionTable(*conns))
    for column in (*gates, *conns):
        column.clear()
    doc = _load_document(text)
    errs = []
    if _check_circuit_header(doc, _CIRCUIT_TYPES, errs):
        for i, entry in enumerate(doc.get("gates", [])):
            gid = entry.get("id")
            _check_entry(entry, _GATE_TYPES, _GATE_TYPES, gid if STRING.holds([gid]) else f"gates[{i}]", errs)
        for i, entry in enumerate(doc.get("connections", [])):
            _check_entry(entry, _CONN_TYPES, _CONN_REQUIRED, f"connections[{i}]", errs)
    if errs:
        raise ValidationError(errs)
    for obj in (*doc.get("gates", ()), *doc.get("connections", ())):
        fill(list(obj.items()))
    _typed_columns(gates, conns)  # converts only: the rules passed every value
    return Circuit(doc["name"], doc["num_rows"], GateTable(*gates), ConnectionTable(*conns))


def _field_tokens(columns) -> list[list[str]]:
    """The JSON token of every value of each of ``columns``, one list per column.

    Each column takes one call to the C encoder, with a newline between
    items. ``ensure_ascii`` escapes every newline inside a string, so each
    newline in the output separates two tokens.
    """
    return [json.dumps(column, separators=("\n", ": "))[1:-1].split("\n") for column in columns if column]


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
        for gid, cell, row, offset in zip(*_field_tokens(c.gates.columns()))
    ]
    connections = [
        # A connection without an extracted delay has no prop_ps key.
        f'    {{\n      "src": {src},\n      "dst": {dst},\n      "length_um": {length}\n    }}'
        if prop == "null"
        else f'    {{\n      "src": {src},\n      "dst": {dst},\n      "length_um": {length},\n'
        f'      "prop_ps": {prop}\n    }}'
        for src, dst, length, prop in zip(*_field_tokens(c.connections.columns()))
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
        isinstance(seg, list) and len(seg) == 2 and FINITE.holds(seg) for seg in entry
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
    ``PiecewiseLinear`` checks against the breakpoints. The breakpoint grid
    is checked once, not once per cell function. Shape errors raise
    :class:`ValidationError`. ``validate_library`` then checks the
    content; its errors raise :class:`ValidationError` as well, and its
    warnings (reset delay reaching the period, segment discontinuities) are
    logged once here, so callers need not re-run it.
    """
    doc = _load_document(source)
    errs: list[Diagnostic] = []
    _check_version(doc, "library", errs)
    _check_keys(doc, _LIBRARY_KEYS, "library", errs)
    if not (
        _check_missing(doc, _LIBRARY_KEYS, "library", errs)
        and _check_types(doc, _LIBRARY_TYPES, "library", errs)
    ):
        raise ValidationError(errs)
    breakpoints = tuple(float(b) for b in doc["breakpoints_ps"])
    # The grid alone first, so each of its faults is named once, not once per cell function.
    if _parse_pwl([[0.0, 0.0]] * (len(breakpoints) - 1), breakpoints, "breakpoints_ps", errs) is None:
        raise ValidationError(errs)
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
        raise ValidationError(errs)
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
        raise ValidationError(hard)
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
    slacks,
    stats=None,
    manifest: Optional[dict] = None,
    verbose: bool = False,
) -> dict:
    """Assemble the report document for a feasible schedule.

    ``slacks`` is the :class:`aqfpopt.timing.SlackReport` of the final
    schedule; ``stats`` the buffer-removal plan, if removal ran. The
    document's ``connections`` are the STA's slack columns;
    ``serialize_report`` writes each of their rows as a
    ``src``/``dst``/``setup_slack_ps``/``hold_slack_ps`` object.
    """
    period = schedule.period
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "frequency_ghz": 1000.0 / period,
        "period_ps": period,
        "latency_ps": schedule.latency,
        "slack_ps": schedule.slack,
        "min_slack_ps": slacks.min_slack,
        "segment_index": schedule.segment_index,
        "row_deltas_ps": list(schedule.row_deltas),
        "buffers_total": 0 if stats is None else stats.buffers_total,
        "buffers_removed": 0 if stats is None else stats.buffers_removed,
        "connections": slacks.entries,
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
#: A 200x5 report (1.3-1.5k connections) takes several batches, so writing it
#: stays under the circuit read's peak; a smaller batch costs writer time on
#: large reports (README, "Memory").
REPORT_BATCH = 256


def serialize_report(report: dict, out) -> None:
    """Write the report document to the text stream ``out``.

    The bytes equal ``json.dumps(doc)`` and a newline, where ``doc`` holds
    one object per row of the ``connections`` columns; but neither those
    objects nor a string of the whole report is ever built. The connections
    are encoded in batches of ``REPORT_BATCH``, one C encoder call per
    column, as in ``serialize_circuit``. No indent, since reports run to
    megabytes.
    """
    head = {key: value for key, value in report.items() if key not in ("connections", "chains", "manifest")}
    out.write(json.dumps(head)[:-1] + ', "connections": [')
    connections = report["connections"]
    for start in range(0, len(connections), REPORT_BATCH):
        tokens = _field_tokens(column[start:start + REPORT_BATCH] for column in connections.columns())
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

    The frequency, period, latency and slack must be finite numbers, the
    frequency and period also positive, and the STA slack a finite number or
    null; ``segment_index`` an integer, the buffer counts integers >= 0;
    ``row_deltas_ps`` a list of numbers; ``connections`` a list of objects,
    whose fields ``report_connections`` checks. The manifest's
    ``config`` must be an object, with a boolean ``remove_buffers`` if it has
    one; ``verify`` checks its other settings as an ``OptimizationConfig``.
    """
    doc = _load_document(source)
    errs: list[Diagnostic] = []
    _check_version(doc, "report", errs)
    _check_keys(doc, _REPORT_KEYS, "report", errs)
    _check_missing(doc, _REPORT_KEYS - {"chains", "manifest"}, "report", errs)
    _check_types(doc, _REPORT_TYPES, "report", errs)
    manifest = doc.get("manifest")
    if isinstance(manifest, dict) and _check_types(manifest, {"config": _OBJECT}, "manifest", errs):
        _check_types(manifest.get("config", {}), _REPORT_CONFIG_TYPES, "manifest.config", errs)
    if errs:
        raise ValidationError(errs)
    return doc


def report_connections(report: dict) -> list[list]:
    """The parsed report's connections as four columns, ``src``, ``dst``,
    ``setup_slack_ps`` and ``hold_slack_ps``: strings, then real numbers."""
    connections = report["connections"]
    try:
        columns = [list(map(operator.itemgetter(key), connections)) for key in _SLACK_TYPES]
    except KeyError as e:
        raise ValidationError([Diagnostic("PARSE_ERROR", "connections", f"an entry has no {e.args[0]!r}")]) from e
    if not all(rule.holds(column) for rule, column in zip(_SLACK_TYPES.values(), columns)):
        raise ValidationError([Diagnostic("PARSE_ERROR", "connections", "src and dst must be strings, slacks numbers")])
    if not set(map(len, connections)) <= {len(_SLACK_TYPES)}:  # an entry has a key beyond these
        errs: list[Diagnostic] = []
        for i, entry in enumerate(connections):
            _check_keys(entry, _SLACK_TYPES, f"connections[{i}]", errs)
        raise ValidationError(errs)
    return columns


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
