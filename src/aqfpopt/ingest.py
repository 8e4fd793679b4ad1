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
in batches. Neither holds the whole text. One reader, ``_ListStream``,
reads every document once, a library's too, and names each fault itself.
"""

from __future__ import annotations

import codecs
import io
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


def _check_entry(entry: dict, types: dict, entity: str, errs: list) -> None:
    """Check one list entry against its type table, in which only a field
    whose rule is ``FINITE_OR_NULL`` may be left out."""
    _check_keys(entry, types, entity, errs)
    if _check_missing(entry, [key for key, rule in types.items() if rule is not FINITE_OR_NULL], entity, errs):
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


#: Bytes, or characters of a text, read at a time. The parse holds a few
#: chunks of text besides the columns; a larger chunk decodes no faster, and
#: a smaller one costs a decoder call per few entries (README, "Memory").
READ_CHUNK = 1 << 13

_SPACE = WHITESPACE.match  # the whitespace JSON allows between tokens
_SCAN = json.JSONDecoder().scan_once  # the C scanner of one value at an index
_SCAN_ERRORS = (StopIteration, ValueError, RecursionError)


def _slices(text: str):
    """A ``read`` of ``text``: each call returns the next ``n`` characters."""
    at = 0

    def read(n: int) -> str:
        nonlocal at
        at += n
        return text[at - n:at]

    return read


def _reader(source):
    """A ``read(n)`` of the text of ``source``: JSON text, a text stream or a
    file. A file's bytes are decoded as UTF-8, with a text file's newlines,
    and a byte that is not UTF-8 is named by its offset in the file."""
    if isinstance(source, str):
        return _slices(source)
    source = getattr(source, "buffer", source)  # the bytes under a text file
    if isinstance(source.read(0), str):
        return source.read
    decode = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), True).decode
    done = 0

    def read(n: int) -> str:
        nonlocal done
        data = source.read(n)
        done += len(data)
        try:
            text = decode(data, not data)
        except UnicodeDecodeError as e:  # its object: the bytes held back from the last read, then these
            at = done - len(e.object)
            e = UnicodeDecodeError(e.encoding, bytes(at) + e.object, at + e.start, at + e.end, e.reason)
            raise ValidationError([Diagnostic("PARSE_ERROR", "document", str(e))]) from None
        return read(n) if data and not text else text  # bytes that end inside a character decode to none of it

    return read


class _ListStream:
    """A document's text, decoded as it is read ``READ_CHUNK`` at a time.

    Each top-level list whose key is in ``lists`` is decoded in batches into
    its ``columns``, or its entries' faults into its ``faults``. Any other
    fault raises the diagnostic ``json.loads`` makes of the whole text. The
    text is kept from the ``mark``, the end of the last whole token, on; the
    ``state`` is JSON text that puts a decoder where the stream stood there.
    """

    def __init__(self, read, lists: dict):
        self.read, self.lists = read, lists
        self.text, self.pos, self.end = "", 0, False
        self.mark, self.state, self.lines = 0, "", 0  # lines: the newlines of the text dropped
        self.share = {}.setdefault
        self.columns = {key: tuple([] for _ in types) for key, types in lists.items()}
        self.faults = {key: [] for key in lists}

    def more(self) -> None:
        """Drop the text before the mark and read on, at least as much as is
        kept, so a value longer than a chunk takes few reads."""
        self.lines += self.text.count("\n", 0, self.mark)
        rest, self.text = self.text[self.mark:], ""  # the old text goes before the next is read
        chunk = self.read(max(READ_CHUNK, len(rest)))
        self.text, self.pos, self.mark, self.end = rest + chunk, self.pos - self.mark, 0, not chunk

    def fault(self):
        """Raise what ``json.loads`` makes of the text: read to its end, the
        text after the mark, behind the state, is at fault at the same
        place. If it is not, the top level is no object."""
        while not self.end:
            self.more()
        try:
            json.loads(self.state + self.text[self.mark:])
        except json.JSONDecodeError as e:
            line = self.lines + self.text.count("\n", 0, self.mark) + e.lineno
            raise ValidationError([Diagnostic("PARSE_ERROR", f"line {line}", e.msg)]) from None
        except (ValueError, RecursionError) as e:  # an integer of over 4300 digits, or nesting too deep
            raise ValidationError([Diagnostic("PARSE_ERROR", "document", str(e))]) from None
        raise ValidationError([Diagnostic("PARSE_ERROR", "document", "top level must be an object")])

    def peek(self) -> str:
        """The character after the whitespace at the position; "" at the end of the text."""
        while True:
            self.pos = _SPACE(self.text, self.pos).end()
            if self.pos < len(self.text) or self.end:
                return self.text[self.pos:self.pos + 1]
            self.more()

    def token(self, char: str, state: str) -> None:
        """Read ``char``, which must come next, and mark the text after it, which stands in ``state``."""
        if self.peek() != char:
            self.fault()
        self.pos += 1
        self.mark, self.state = self.pos, state

    def value(self):
        """Decode the value after the whitespace at the position, reading on
        until it is whole, and a number until three characters follow it: one
        cut after its "." or exponent may go on in the next chunk."""
        self.peek()
        while True:
            try:
                value, end = _SCAN(self.text, self.pos)
                if type(value) not in (int, float) or len(self.text) - end > 2 or self.end:
                    self.pos = end
                    return value
            except _SCAN_ERRORS:
                if self.end:
                    self.fault()
            self.more()

    def batch(self, key, items: list, index: int) -> None:
        """Take entries of the list at ``key``, the first its ``index``-th:
        objects of the list's fields whose values pass their rules (a field
        left out reads None, which only an optional field's rule passes) go
        into the columns. Else the rules name each entry's faults, a gate by
        its id, any other entry by its place."""
        types, faults = self.lists[key], self.faults[key]
        if faults is None or not set(map(type, items)) <= {dict}:
            self.faults[key] = None  # the list fails its rule as a whole
            return
        if set().union(*items) <= types.keys():
            values = [list(map(dict.get, items, repeat(field))) for field in types]
            if all(rule.holds(vals) for rule, vals in zip(types.values(), values)):
                for rule, column, vals in zip(types.values(), self.columns[key], values):
                    column.extend(map(self.share, vals, vals) if rule is STRING or rule is INTEGER else vals)
                return
        for i, entry in enumerate(items, index):
            name = entry.get("id") if "id" in types else None
            _check_entry(entry, types, name if STRING.holds([name]) else f"{key}[{i}]", faults)

    def array(self, key) -> list:
        """Decode the list at ``key``, whose "[" comes next, into fresh
        columns (``json.loads`` keeps the last list of a key given twice), a
        batch at a time. A batch runs up to the last "}" read, or to the "]"
        that closes the list if that comes first. A batch cut at a "}" that
        ends no entry (one inside a name, say) is cut at the "}" before
        instead; where no cut decodes, one entry is decoded alone. Returns
        the list's value in the document: empty, or holding a value that is
        no object."""
        self.token("[", '{"":[')
        self.columns[key], self.faults[key] = tuple([] for _ in self.lists[key]), []
        index = 0
        if self.peek() != "]":
            while True:
                # A list that held a value other than an object goes on an entry at a time.
                cut = self.text.rfind("}", self.pos) if self.faults[key] is not None else self.pos
                if cut < 0 and not self.end:
                    self.more()
                    continue
                items = None
                while items is None and cut > self.pos:
                    try:
                        items, end = _SCAN(f"[{self.text[self.pos:cut + 1]}]", 0)
                    except _SCAN_ERRORS:
                        cut = self.text.rfind("}", self.pos, cut)
                    else:
                        self.pos += end - 2
                items = items or [self.value()]
                self.batch(key, items, index)
                index += len(items)
                self.mark, self.state = self.pos, '{"":[""'
                if self.peek() != ",":
                    break
                self.pos += 1
        self.token("]", '{"":""')
        return [] if self.faults[key] is not None else [None]

    def document(self) -> dict:
        """The top-level object, in which each list read in batches stands
        as an empty list. With no list to read in batches, it is decoded
        whole."""
        doc = self.members() if self.lists else self.value()
        if self.peek() or type(doc) is not dict:  # text after it, or a top level of another type
            self.fault()
        return doc

    def members(self) -> dict:
        """The top-level object, a member at a time. A key given twice keeps
        its last value, as in ``json.loads``."""
        doc = {}
        self.token("{", "{")
        while doc or self.peek() != "}":
            if self.peek() != '"':
                self.fault()
            key = self.value()
            self.token(":", '{"":')
            doc[key] = self.array(key) if key in self.lists and self.peek() == "[" else self.value()
            if self.peek() != ",":
                break
            self.pos += 1
        self.token("}", '""')
        return doc


def _decode_lists(source, lists: dict, header) -> dict:
    """The top-level object of ``source`` (JSON text or a readable file),
    with each list that ``lists`` names as a tuple of columns.

    ``lists`` maps each list's key to the rule table of its entries, one
    column per field in table order. A field whose rule is
    ``FINITE_OR_NULL`` may be left out. ``header(doc, errs)`` checks the
    other fields and returns whether the entries are worth checking. Any
    fault raises :class:`ValidationError`, one diagnostic per finding.

    :class:`_ListStream` reads the text once, and decodes each list as it
    comes, by a plain ``json.JSONDecoder``, in batches cut after the last
    "}" read; so neither the whole text nor an object per entry is ever
    held, and a pipe is read as a file is. The same rules check each
    batch's values a column at a time and, if they fail, each entry's as
    lists of one; the stream reads on, so every faulty entry is named. Each
    distinct name or integer is one object, shared by every list.
    """
    stream = _ListStream(_reader(source), lists)
    doc = stream.document()
    errs: list[Diagnostic] = []
    if header(doc, errs):
        errs += [fault for faults in stream.faults.values() for fault in faults]
    if errs:
        raise ValidationError(errs)
    return {**doc, **stream.columns}


def parse_circuit(source) -> Circuit:
    """Parse a circuit document (JSON text or a readable file) into columns.

    This pass checks the shape only: keys and the rule of each field (string
    ids, cells and endpoints, integer rows, finite numbers, lists of objects).
    It raises :class:`ValidationError` with one diagnostic per finding. What
    the content means is checked by ``validate_circuit``, which every command
    runs next: unique ids, known cells and endpoints, rows in range and
    increasing along every connection, and drivable lengths.

    ``_decode_lists`` streams the ``gates`` and ``connections`` lists into
    their columns; a connection may leave out ``prop_ps``. Equal rows are
    one int object, and each distinct cell name and gate id one string
    object, shared by the gate and the endpoints naming it, whichever list
    comes first. Integers in a number column then become floats.
    """
    doc = _decode_lists(source, _CIRCUIT_LISTS, _check_circuit_header)
    gates, conns = doc["gates"], doc["connections"]
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
    doc = _ListStream(_reader(source), {}).document()
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
    becomes an IO_ERROR diagnostic. The parsers read the file's bytes
    themselves, a chunk at a time, so no caller frame keeps its text."""
    try:
        with open(path, "rb") as fh:
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
