"""Parsing and serialization of the circuit, library and report file formats.

All three formats are versioned JSON documents (``"format_version": 1``).
Circuit files use the ``.qc.json`` suffix, libraries ``.qlib.json`` and
reports ``.report.json`` by convention. Unknown keys are rejected so typos
fail loudly instead of silently dropping timing data.

The parsers check the shape of a document: its keys, and each field against
its rule in :mod:`aqfpopt.model`, a decoded column whole and any other
value as a list of one. What the content means is checked by
``validate_circuit`` and ``validate_library``, there too. The circuit's
``gates`` and ``connections`` and the report's ``connections`` are lists of
four-field objects, held as columns. Their field tables (``_GATE_TYPES``,
``_CONN_TYPES``, ``_SLACK_TYPES``) drive both directions: one decoder,
``_decode_lists``, reads each list in batches of plain objects into its
columns, and one writer, ``_write_document``, writes each from its columns
in batches. Neither holds the whole text.
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import repeat
from json.decoder import WHITESPACE
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
    ConnectionTable,
    Diagnostic,
    GateTable,
    PiecewiseLinear,
    Rule,
    Schedule,
    ValidationError,
    log,
    validate_circuit,
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
_CIRCUIT_KEYS = {"format_version", *_CIRCUIT_TYPES}
_GATE_TYPES = {"id": STRING, "cell": STRING, "row": INTEGER, "clock_offset_ps": FINITE}
_CONN_TYPES = {"src": STRING, "dst": STRING, "length_um": FINITE, "prop_ps": FINITE_OR_NULL}
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
#: Each format's lists of four-field objects, by key: the rule table of their
#: entries, one column per field in table order.
_CIRCUIT_LISTS = {"gates": _GATE_TYPES, "connections": _CONN_TYPES}
_REPORT_LISTS = {"connections": _SLACK_TYPES}


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


def _required(types: dict) -> set:
    """The fields of a list entry's rule table that it may not leave out: all
    but those whose rule is ``FINITE_OR_NULL``."""
    return {key for key, rule in types.items() if rule is not FINITE_OR_NULL}


def _check_entry(entry: dict, types: dict, entity: str, errs: list) -> None:
    """Check one list entry against its type table."""
    _check_keys(entry, types, entity, errs)
    if _check_missing(entry, _required(types), entity, errs):
        _check_types(entry, types, entity, errs)


def _check_circuit_header(doc: dict, errs: list) -> bool:
    _check_version(doc, "circuit", errs)
    _check_keys(doc, _CIRCUIT_KEYS, "circuit", errs)
    _check_missing(doc, ("name", "num_rows"), "circuit", errs)
    return _check_types(doc, _CIRCUIT_TYPES, "circuit", errs)


def _check_report_header(doc: dict, errs: list) -> bool:
    _check_version(doc, "report", errs)
    _check_keys(doc, _REPORT_KEYS, "report", errs)
    _check_missing(doc, _REPORT_KEYS - {"chains", "manifest"}, "report", errs)
    _check_types(doc, _REPORT_TYPES, "report", errs)
    manifest = doc.get("manifest")
    if isinstance(manifest, dict) and _check_types(manifest, {"config": _OBJECT}, "manifest", errs):
        _check_types(manifest.get("config", {}), _REPORT_CONFIG_TYPES, "manifest.config", errs)
    return not errs


#: Characters of document text read at a time. The parse holds a few chunks
#: of text besides the columns; a larger chunk decodes no faster, and a
#: smaller one costs a decoder call per few entries (README, "Memory").
READ_CHUNK = 1 << 13

_SPACE = WHITESPACE.match  # the whitespace JSON allows between tokens
_SCAN = json.JSONDecoder().scan_once  # the C scanner of one value at an index
_SCAN_ERRORS = (StopIteration, ValueError, RecursionError)


class _Unread(Exception):
    """The text is not a document the stream takes in; the second decode names why."""


class _ListStream:
    """A document's text, decoded as it is read ``READ_CHUNK`` characters
    at a time. Each top-level list whose key is in ``lists`` is decoded in
    batches of plain objects, and ``batch(key, items)`` puts each one into
    that list's columns, or raises :class:`_Unread`."""

    def __init__(self, read, lists, batch):
        self.read, self.lists, self.batch = read, lists, batch
        self.text, self.pos, self.end = "", 0, False

    def more(self) -> None:
        """Drop the text before the position and read on, at least as much as
        is left, so a value longer than a chunk takes few reads."""
        rest, self.text = self.text[self.pos:], ""  # the old text goes before the next is read
        chunk = self.read(max(READ_CHUNK, len(rest)))
        self.end = not chunk
        self.text, self.pos = rest + chunk, 0

    def peek(self) -> str:
        """The character after the whitespace at the position; "" at the end of the text."""
        while True:
            self.pos = _SPACE(self.text, self.pos).end()
            if self.pos < len(self.text) or self.end:
                return self.text[self.pos:self.pos + 1]
            self.more()

    def take(self, char: str) -> None:
        if self.peek() != char:
            raise _Unread
        self.pos += 1

    def value(self):
        """Decode the value after the whitespace at the position, reading on until it is whole."""
        self.peek()
        while True:
            try:
                value, end = _SCAN(self.text, self.pos)
                if end < len(self.text) or self.end:  # else a number may go on in the next chunk
                    self.pos = end
                    return value
            except _SCAN_ERRORS:
                if self.end:
                    raise _Unread from None
            self.more()

    def array(self, key) -> int:
        """Decode the list at ``key`` whose "[" was just read, a batch at a
        time; returns its element count. A batch runs up to the last "}"
        read and leaves the position after it, or at the "]" that closes the
        list if that comes first. A "}" that ends no element (one inside a
        name, say) leaves its batch undecodable, and the second decode reads
        the text."""
        count = 0
        if self.peek() == "]":
            self.pos += 1
            return 0
        while True:
            cut = self.text.rfind("}", self.pos)
            if cut < 0 and not self.end:
                self.more()
                continue
            try:
                items, end = _SCAN(f"[{self.text[self.pos:cut + 1]}]", 0)
            except _SCAN_ERRORS:
                raise _Unread from None
            if not items:
                raise _Unread
            self.batch(key, items)
            self.pos += end - 2
            count += len(items)
            if self.peek() == "]":
                self.pos += 1
                return count
            self.take(",")

    def document(self) -> dict:
        """The top-level object, in which each list read in batches stands
        as an empty list: its entries are in the columns. A key given twice
        keeps its last value, as in ``json.loads``; a list key given again
        after its entries filled rows raises :class:`_Unread`."""
        doc, filled = {}, set()
        self.take("{")
        while True:
            if self.peek() != '"':
                raise _Unread
            key = self.value()
            self.take(":")
            if key in self.lists and self.peek() == "[":
                if key in filled:
                    raise _Unread
                self.pos += 1
                if self.array(key):
                    filled.add(key)
                doc[key] = []
            else:
                doc[key] = self.value()
            if self.peek() != ",":
                break
            self.pos += 1
        self.take("}")
        if self.peek():  # text after the document
            raise _Unread
        return doc


def _slices(text: str):
    """A ``read`` of ``text``: each call returns the next ``n`` characters."""
    at = 0

    def read(n: int) -> str:
        nonlocal at
        at += n
        return text[at - n:at]

    return read


def _read_whole(source) -> str:
    try:
        return source.read()
    except UnicodeDecodeError as e:  # as _load_document names it for the other files
        raise ValidationError([Diagnostic("PARSE_ERROR", "document", str(e))]) from e


def _decode_lists(source, lists: dict, header) -> dict:
    """The top-level object of a document (JSON text or a readable text
    file), with each list that ``lists`` names as a tuple of columns.

    ``lists`` maps each list's key to the rule table of its entries, one
    column per field in table order. A field whose rule is
    ``FINITE_OR_NULL`` may be left out. ``header(doc, errs)`` checks the
    other fields and returns whether the entries are worth checking. Any
    fault raises :class:`ValidationError`, one diagnostic per finding.

    The text is read ``READ_CHUNK`` characters at a time, a text given as a
    string sliced alike, and each list is decoded as it comes, by a plain
    ``json.JSONDecoder``, in batches cut after the last "}" read. So
    neither the whole text nor an object per entry is ever held. A batch is
    taken when every entry is an object of its list's fields, whatever
    their order (a repeated key keeps its last value, as in
    ``json.loads``), and each field's values pass its rule: they are then
    appended to the field's column. A document whose batches are all taken
    and whose header passes is taken.

    Any other document is decoded again whole, from the start of the
    source, and the same rules, given each entry's values as lists of one,
    name what is wrong with it; a file that cannot seek back, such as a
    pipe, is read whole first. If the rules find nothing, the document is
    one the stream did not take (a batch was cut at a "}" inside a name, or
    a list key repeated after its entries filled rows), and its lists go
    into fresh columns as one batch each.

    Each distinct name is one string object, shared by every list that
    holds it, whichever comes first.
    """
    share = {}.setdefault
    columns = {key: tuple([] for _ in types) for key, types in lists.items()}

    def batch(key, items: list) -> None:
        # A field left out reads None, which only the rule of an optional field passes.
        types = lists[key]
        if not set(map(type, items)) <= {dict} or not set().union(*items) <= types.keys():
            raise _Unread
        values = [list(map(dict.get, items, repeat(field))) for field in types]
        if not all(rule.holds(vals) for rule, vals in zip(types.values(), values)):
            raise _Unread
        for rule, column, vals in zip(types.values(), columns[key], values):
            column.extend(map(share, vals, vals) if rule is STRING else vals)

    if hasattr(source, "read") and not source.seekable():
        source = _read_whole(source)
    if isinstance(source, str):
        text, read = source, _slices(source)
    else:
        text, read, start = None, source.read, source.tell()
    try:
        doc = _ListStream(read, lists, batch).document()
    except (_Unread, UnicodeDecodeError):  # the whole read below names a bad byte by its offset in the file
        doc = None
    errs: list[Diagnostic] = []
    if doc is not None and header(doc, errs) and not errs:
        return {**doc, **columns}
    columns = {key: tuple([] for _ in types) for key, types in lists.items()}  # the stream may have filled some
    if text is None:
        source.seek(start)
        text = _read_whole(source)
    doc = _load_document(text)
    errs = []
    if header(doc, errs):
        for key, types in lists.items():
            for i, entry in enumerate(doc.get(key, [])):
                name = entry.get("id") if "id" in types else None  # a gate is named by its id
                _check_entry(entry, types, name if STRING.holds([name]) else f"{key}[{i}]", errs)
    if errs:
        raise ValidationError(errs)
    for key in lists:
        batch(key, doc.get(key, []))
    return {**doc, **columns}


def parse_circuit(source) -> Circuit:
    """Parse a circuit document (JSON text or a readable text file) into columns.

    This pass checks the shape only: keys and the rule of each field (string
    ids, cells and endpoints, integer rows, finite numbers, lists of objects).
    It raises :class:`ValidationError` with one diagnostic per finding. What
    the content means is checked by ``validate_circuit``, which every command
    runs next: unique ids, known cells and endpoints, rows in range and
    increasing along every connection, and drivable lengths.

    ``_decode_lists`` streams the ``gates`` and ``connections`` lists into
    their columns; a connection may leave out ``prop_ps``. Integers in a
    number column then become floats, and equal rows one int object. Each
    distinct cell name and gate id is one string object, shared by the gate
    and the endpoints naming it, whichever list comes first.
    """
    doc = _decode_lists(source, _CIRCUIT_LISTS, _check_circuit_header)
    gates, conns = doc["gates"], doc["connections"]
    share = {}.setdefault
    gates[2][:] = map(share, gates[2], gates[2])
    for column in (gates[3], *conns[2:]):  # clock_offset, length and prop
        if int in set(map(type, column)):  # only in a respelled circuit: gen writes floats
            column[:] = [v if v is None else float(v) for v in column]
    return Circuit(doc["name"], doc["num_rows"], GateTable(*gates), ConnectionTable(*conns))


#: Rows encoded per batch by the writers, which hold one batch's text at a
#: time. A 200x5 report (1.3-1.5k connections) takes several batches, so
#: writing it stays under the circuit read's peak; a smaller batch costs
#: writer time on large documents (README, "Memory").
REPORT_BATCH = 256


def _field_tokens(columns) -> list[list[str]]:
    """The JSON token of every value of each of ``columns``, one list per column.

    Each column takes one call to the C encoder, with a newline between
    items. ``ensure_ascii`` escapes every newline inside a string, so each
    newline in the output separates two tokens.
    """
    return [json.dumps(column, separators=("\n", ": "))[1:-1].split("\n") for column in columns]


def _write_document(doc: dict, lists: dict, out, indent: Optional[int] = None) -> None:
    """Write ``doc`` to the text stream ``out`` in key order, byte for byte as
    ``json.dumps(doc, indent=indent)`` and a newline, where each key that
    ``lists`` names holds a column table: it stands for a list of one object
    per row, keyed by the fields of its rule table in order, with a
    ``FINITE_OR_NULL`` field left out where its value is null.

    Neither those objects nor the document's text is ever built. Each table
    is encoded ``REPORT_BATCH`` rows at a time, one C encoder call per
    column, and a batch's text is one join of a list into which the
    constant text before each field and the field's tokens are interleaved
    by slice assignment. (An indent forces CPython's pure-Python encoder,
    about three times as slow on a large circuit.)
    """
    # The text that starts a line at each depth ("" without an indent) and the text between two items.
    lines = ["" if indent is None else "\n" + " " * (indent * depth) for depth in range(4)]
    seps = [", " if indent is None else "," + line for line in lines]
    for i, (key, value) in enumerate(doc.items()):
        out.write((seps[1] if i else "{" + lines[1]) + json.dumps(key) + ": ")
        if key not in lists:
            # Each newline of an encoded value starts a line; ensure_ascii escapes those in strings.
            out.write(json.dumps(value, indent=indent).replace("\n", lines[1]))
            continue
        types, rows = lists[key], len(value)
        fields = [json.dumps(field) + ": " for field in types]
        # The text before each field's token; the first's follows the row before.
        befores = [seps[2] + "{" + lines[3] + fields[0], *(seps[3] + field for field in fields[1:])]
        width = 2 * len(types) + 1  # a row's slots: text and token of each field, then its closing
        out.write("[")
        for start in range(0, rows, REPORT_BATCH):
            tokens = _field_tokens(column[start:start + REPORT_BATCH] for column in value.columns())
            count = len(tokens[0])
            flat = [lines[2] + "}"] * (width * count)
            for j, (before, rule, column) in enumerate(zip(befores, types.values(), tokens)):
                if rule is FINITE_OR_NULL:  # left out where null
                    before, column = "", ["" if token == "null" else before + token for token in column]
                flat[2 * j::width] = [before] * count
                flat[2 * j + 1::width] = column
            if not start:  # the list's first row follows no other
                flat[0] = lines[2] + "{" + lines[3] + fields[0]
            out.write("".join(flat))
        out.write(lines[1] + "]" if rows else "]")
    out.write(lines[0] + "}\n")


def serialize_circuit(c: Circuit, out) -> None:
    """Write the circuit document to the text stream ``out``, byte for byte
    as ``json.dumps(doc, indent=2)`` and a newline, where ``doc`` holds one
    object per row of the gate and connection columns. A connection without
    an extracted delay has no ``prop_ps`` key."""
    doc = {"format_version": FORMAT_VERSION, "name": c.name, "num_rows": c.num_rows,
           "gates": c.gates, "connections": c.connections}
    _write_document(doc, _CIRCUIT_LISTS, out, indent=2)


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


def serialize_report(report: dict, out) -> None:
    """Write the report document to the text stream ``out``, byte for byte
    as ``json.dumps(doc)`` and a newline, where ``doc`` holds one object per
    row of the ``connections`` columns. No indent, since reports run to
    megabytes."""
    _write_document(report, _REPORT_LISTS, out)


def parse_report(source) -> dict:
    """Parse a report document and check the shape of what ``verify`` reads.

    The frequency, period, latency and slack must be finite numbers, the
    frequency and period also positive, and the STA slack a finite number or
    null; ``segment_index`` an integer, the buffer counts integers >= 0;
    ``row_deltas_ps`` a list of numbers. The manifest's ``config`` must be an
    object, with a boolean ``remove_buffers`` if it has one; ``verify``
    checks its other settings as an ``OptimizationConfig``. Each connection
    holds exactly ``src`` and ``dst``, strings, and ``setup_slack_ps`` and
    ``hold_slack_ps``, real numbers. ``_decode_lists`` streams them into
    four columns in that order, which the returned document holds as its
    ``connections``.
    """
    return _decode_lists(source, _REPORT_LISTS, _check_report_header)


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


def read_input(path, parse):
    """Open the input file at ``path`` and pass it to ``parse``; an OS error
    becomes an IO_ERROR diagnostic. The parsers read the file themselves, so
    no caller frame keeps its text: ``parse_circuit`` decodes the circuit as
    it reads it in chunks, and the library and report parsers free their
    text once decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except OSError as e:
        raise ValidationError([Diagnostic("IO_ERROR", str(path), str(e))]) from e


def load_inputs(circuit, lib) -> tuple[Circuit, CellLibrary]:
    """The circuit and library files at these paths, parsed and validated
    against each other."""
    circuit = read_input(circuit, parse_circuit)
    lib = read_input(lib, parse_library)
    diags = validate_circuit(circuit, lib)
    if diags:
        raise ValidationError(diags)
    return circuit, lib


def write_output(path, write) -> None:
    """Open a command's output file at ``path`` and pass it to ``write``; an
    OS error becomes an IO_ERROR diagnostic."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as e:
        raise ValidationError([Diagnostic("IO_ERROR", str(path), str(e))]) from e


def reference_library() -> CellLibrary:
    """The library shipped with the package (uniform cells, 5 GHz limit)."""
    return parse_library(resources.files("aqfpopt").joinpath("data/reference.qlib.json").read_text())
