"""Parsing and serialization of the circuit, library and report file formats.

All three formats are versioned JSON documents (``"format_version": 1``).
Circuit files use the ``.qc.json`` suffix, libraries ``.qlib.json`` and
reports ``.report.json`` by convention. Unknown keys are rejected so typos
fail loudly instead of silently dropping timing data.
"""

from __future__ import annotations

import json
import logging
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
    validate_library,
)

log = logging.getLogger("aqfpopt")

FORMAT_VERSION = 1

_CIRCUIT_KEYS = {"format_version", "name", "num_rows", "gates", "connections"}
_GATE_KEYS = {"id", "cell", "row", "clock_offset_ps"}
_CONN_KEYS = {"src", "dst", "length_um", "prop_ps"}
_LIBRARY_KEYS = {
    "format_version",
    "l_max_drive_um",
    "l_buffer_um",
    "prop_ps_per_um",
    "max_frequency_ghz",
    "t_min_ps",
    "t_max_ps",
    "breakpoints_ps",
    "cells",
}
_CELL_KEYS = {"c2q", "setup", "hold", "rd"}
_REPORT_KEYS = {
    "format_version",
    "frequency_ghz",
    "period_ps",
    "latency_ps",
    "slack_ps",
    "min_slack_ps",
    "segment_index",
    "row_deltas_ps",
    "buffers_total",
    "buffers_removed",
    "connections",
    "chains",
    "manifest",
}


class CircuitFormatError(ValidationError):
    pass


class LibraryFormatError(ValidationError):
    pass


class ReportFormatError(ValidationError):
    pass


def _load_document(text, exc_type) -> dict:
    if isinstance(text, dict):
        return text
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise exc_type([Diagnostic("PARSE_ERROR", f"line {e.lineno}", e.msg)]) from e
    if not isinstance(doc, dict):
        raise exc_type([Diagnostic("PARSE_ERROR", "document", "top level must be an object")])
    return doc


def _check_keys(doc: dict, allowed: set, entity: str, errs: list) -> None:
    for key in doc:
        if key not in allowed:
            errs.append(Diagnostic("UNKNOWN_KEY", entity, f"unexpected key {key!r}"))


def _check_version(doc: dict, entity: str, errs: list) -> None:
    if doc.get("format_version") != FORMAT_VERSION:
        errs.append(
            Diagnostic(
                "BAD_FORMAT_VERSION",
                entity,
                f"expected format_version {FORMAT_VERSION}, got {doc.get('format_version')!r}",
            )
        )


def parse_circuit(text) -> Circuit:
    """Parse a circuit document (JSON text or an already-decoded dict).

    Structural problems (duplicate ids, dangling endpoints, non-monotone
    rows) raise :class:`CircuitFormatError` with one diagnostic per finding.
    Library-dependent checks happen later in ``validate_circuit``.
    """
    doc = _load_document(text, CircuitFormatError)
    errs: list[Diagnostic] = []
    _check_version(doc, "circuit", errs)
    _check_keys(doc, _CIRCUIT_KEYS, "circuit", errs)
    name = doc.get("name", "")
    num_rows = doc.get("num_rows")
    if not isinstance(name, str) or not name:
        errs.append(Diagnostic("PARSE_ERROR", "name", "name must be a non-empty string"))
        name = str(name)
    if not isinstance(num_rows, int) or num_rows < 1:
        errs.append(Diagnostic("PARSE_ERROR", "num_rows", "num_rows must be a positive integer"))
        num_rows = max(1, int(num_rows or 1))

    gates: list[Gate] = []
    seen: set[str] = set()
    for i, entry in enumerate(doc.get("gates", [])):
        ent = entry.get("id", f"gates[{i}]") if isinstance(entry, dict) else f"gates[{i}]"
        if not isinstance(entry, dict):
            errs.append(Diagnostic("PARSE_ERROR", ent, "gate entry must be an object"))
            continue
        _check_keys(entry, _GATE_KEYS, ent, errs)
        missing = _GATE_KEYS - set(entry)
        if missing:
            errs.append(Diagnostic("PARSE_ERROR", ent, f"missing keys {sorted(missing)}"))
            continue
        gid = entry["id"]
        if gid in seen:
            errs.append(Diagnostic("DUPLICATE_ID", gid, "gate id appears more than once"))
        seen.add(gid)
        gates.append(
            Gate(id=gid, cell=entry["cell"], row=int(entry["row"]), clock_offset=float(entry["clock_offset_ps"]))
        )
    rows = {g.id: g.row for g in gates}
    connections: list[Connection] = []
    for i, entry in enumerate(doc.get("connections", [])):
        ent = f"connections[{i}]"
        if not isinstance(entry, dict):
            errs.append(Diagnostic("PARSE_ERROR", ent, "connection entry must be an object"))
            continue
        _check_keys(entry, _CONN_KEYS, ent, errs)
        missing = {"src", "dst", "length_um"} - set(entry)
        if missing:
            errs.append(Diagnostic("PARSE_ERROR", ent, f"missing keys {sorted(missing)}"))
            continue
        src, dst = entry["src"], entry["dst"]
        ent = f"{src}->{dst}"
        ok = True
        for gid in (src, dst):
            if gid not in rows:
                errs.append(Diagnostic("UNKNOWN_GATE", ent, f"endpoint {gid!r} is not a gate"))
                ok = False
        if ok and rows[dst] <= rows[src]:
            errs.append(
                Diagnostic("NONMONOTONE_ROW", ent, f"row({dst})={rows[dst]} must exceed row({src})={rows[src]}")
            )
        prop = entry.get("prop_ps")
        connections.append(
            Connection(
                src=src,
                dst=dst,
                length=float(entry["length_um"]),
                prop=None if prop is None else float(prop),
            )
        )
    for g in gates:
        if not 0 <= g.row < num_rows:
            errs.append(Diagnostic("ROW_OUT_OF_RANGE", g.id, f"row {g.row} outside 0..{num_rows - 1}"))
    if errs:
        raise CircuitFormatError(errs)
    return Circuit(name=name, num_rows=num_rows, gates=tuple(gates), connections=tuple(connections))


def serialize_circuit(c: Circuit) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "name": c.name,
        "num_rows": c.num_rows,
        "gates": [
            {"id": g.id, "cell": g.cell, "row": g.row, "clock_offset_ps": g.clock_offset}
            for g in c.gates
        ],
        "connections": [
            {"src": k.src, "dst": k.dst, "length_um": k.length}
            | ({} if k.prop is None else {"prop_ps": k.prop})
            for k in c.connections
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _parse_pwl(entry, breakpoints, entity, errs) -> Optional[PiecewiseLinear]:
    if not isinstance(entry, list) or not all(
        isinstance(seg, list) and len(seg) == 2 for seg in entry
    ):
        errs.append(Diagnostic("PARSE_ERROR", entity, "expected a list of [slope, intercept] pairs"))
        return None
    if len(entry) != len(breakpoints) - 1:
        errs.append(
            Diagnostic(
                "ARITY_MISMATCH",
                entity,
                f"{len(entry)} segments for {len(breakpoints)} breakpoints",
            )
        )
        return None
    try:
        return PiecewiseLinear(tuple(breakpoints), tuple((s, i) for s, i in entry))
    except ValidationError as e:
        errs.extend(
            Diagnostic(d.code, entity, d.message, d.severity) for d in e.diagnostics
        )
        return None


def parse_library(text) -> CellLibrary:
    """Parse and validate a cell-library document.

    Raises :class:`LibraryFormatError` on any error-severity diagnostic;
    warning-severity findings (reset delay reaching the period, segment
    discontinuities) are logged once here, and callers need not re-run
    ``validate_library``.
    """
    doc = _load_document(text, LibraryFormatError)
    errs: list[Diagnostic] = []
    _check_version(doc, "library", errs)
    _check_keys(doc, _LIBRARY_KEYS, "library", errs)
    missing = _LIBRARY_KEYS - set(doc)
    if missing:
        errs.append(Diagnostic("PARSE_ERROR", "library", f"missing keys {sorted(missing)}"))
        raise LibraryFormatError(errs)
    breakpoints = doc["breakpoints_ps"]
    if not isinstance(breakpoints, list) or len(breakpoints) < 2:
        errs.append(Diagnostic("PARSE_ERROR", "breakpoints_ps", "need at least two breakpoints"))
        raise LibraryFormatError(errs)
    cells_doc = doc["cells"]
    if not isinstance(cells_doc, dict) or not cells_doc:
        errs.append(Diagnostic("EMPTY_LIBRARY", "cells", "library defines no cells"))
        raise LibraryFormatError(errs)
    cells: dict[str, CellTiming] = {}
    for name, entry in cells_doc.items():
        if not isinstance(entry, dict):
            errs.append(Diagnostic("PARSE_ERROR", name, "cell entry must be an object"))
            continue
        _check_keys(entry, _CELL_KEYS, name, errs)
        if set(entry) != _CELL_KEYS:
            errs.append(Diagnostic("PARSE_ERROR", name, f"cell must define exactly {sorted(_CELL_KEYS)}"))
            continue
        fns = {
            fname: _parse_pwl(entry[fname], breakpoints, f"{name}.{fname}", errs)
            for fname in ("c2q", "setup", "hold", "rd")
        }
        if all(v is not None for v in fns.values()):
            cells[name] = CellTiming(**fns)
    if errs:
        raise LibraryFormatError(errs)
    lib = CellLibrary(
        cells=cells,
        breakpoints=tuple(float(b) for b in breakpoints),
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
    buffer-removal plan, if removal ran.
    """
    period = schedule.period
    entries = [] if slacks is None else list(slacks.entries)
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
        "connections": [
            {
                "src": e.src,
                "dst": e.dst,
                "setup_slack_ps": e.setup_slack,
                "hold_slack_ps": e.hold_slack,
            }
            for e in entries
        ],
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


def serialize_report(report: dict) -> str:
    # No indent: reports run to megabytes, and an indent forces CPython's
    # pure-Python encoder.
    return json.dumps(report) + "\n"


def parse_report(text) -> dict:
    doc = _load_document(text, ReportFormatError)
    errs: list[Diagnostic] = []
    _check_version(doc, "report", errs)
    _check_keys(doc, _REPORT_KEYS, "report", errs)
    required = _REPORT_KEYS - {"chains", "manifest"}
    missing = required - set(doc)
    if missing:
        errs.append(Diagnostic("PARSE_ERROR", "report", f"missing keys {sorted(missing)}"))
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
