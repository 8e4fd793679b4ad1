import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from aqfpopt import ingest
from aqfpopt.cli import generate_circuit, main
from aqfpopt.ingest import (
    CircuitFormatError,
    LibraryFormatError,
    ReportFormatError,
    emit_report,
    parse_circuit,
    parse_library,
    parse_report,
    render_report_table,
    schedule_from_report,
    serialize_circuit,
    serialize_library,
    serialize_report,
)
from aqfpopt.model import Circuit, Connection, Gate, Schedule
from aqfpopt.timing import ConnectionSlack, SlackReport

from oracles import circuit_json_reference

MINIMAL_CIRCUIT = {
    "format_version": 1,
    "name": "mini",
    "num_rows": 2,
    "gates": [
        {"id": "a", "cell": "majority3", "row": 0, "clock_offset_ps": 0.0},
        {"id": "b", "cell": "majority3", "row": 1, "clock_offset_ps": 2.0},
    ],
    "connections": [{"src": "a", "dst": "b", "length_um": 5.0}],
}


def codes(excinfo):
    return {d.code for d in excinfo.value.diagnostics}


def load_codes(doc, tmp_path, ref_lib, capsys):
    """Exit code of ``optimize`` on a circuit document, and its diagnostic codes.

    What a circuit means (unique ids, known endpoints, increasing rows) is
    checked after parsing, by ``validate_circuit``; every command runs both.
    """
    circ = tmp_path / "c.qc.json"
    circ.write_text(json.dumps(doc))
    lib = tmp_path / "ref.qlib.json"
    lib.write_text(serialize_library(ref_lib))
    code = main(["optimize", "--circuit", str(circ), "--lib", str(lib)])
    return code, set(re.findall(r"^\[(\w+)\]", capsys.readouterr().err, re.M))


class TestParseCircuit:
    def test_minimal_document(self):
        c = parse_circuit(json.dumps(MINIMAL_CIRCUIT))
        assert len(c.gates) == 2
        assert c.connections[0].prop is None

    def test_duplicate_id(self, tmp_path, ref_lib, capsys):
        doc = json.loads(json.dumps(MINIMAL_CIRCUIT))
        doc["gates"][1]["id"] = "a"
        code, found = load_codes(doc, tmp_path, ref_lib, capsys)
        assert code == 1 and "DUPLICATE_ID" in found

    def test_unknown_gate(self, tmp_path, ref_lib, capsys):
        doc = json.loads(json.dumps(MINIMAL_CIRCUIT))
        doc["connections"][0]["dst"] = "ghost"
        code, found = load_codes(doc, tmp_path, ref_lib, capsys)
        assert code == 1 and "UNKNOWN_GATE" in found

    def test_unknown_key_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_CIRCUIT))
        doc["gates"][0]["colour"] = "blue"
        with pytest.raises(CircuitFormatError) as e:
            parse_circuit(doc)
        assert "UNKNOWN_KEY" in codes(e)

    def test_format_version_required(self):
        doc = json.loads(json.dumps(MINIMAL_CIRCUIT))
        doc["format_version"] = 99
        with pytest.raises(CircuitFormatError) as e:
            parse_circuit(doc)
        assert "BAD_FORMAT_VERSION" in codes(e)

    def test_malformed_json_reports_line(self):
        with pytest.raises(CircuitFormatError) as e:
            parse_circuit("{\n  broken\n}")
        assert "PARSE_ERROR" in codes(e)

    def test_nonmonotone_rows_rejected_at_load(self, tmp_path, ref_lib, capsys):
        doc = json.loads(json.dumps(MINIMAL_CIRCUIT))
        doc["gates"][1]["row"] = 0
        code, found = load_codes(doc, tmp_path, ref_lib, capsys)
        assert code == 1 and "NONMONOTONE_ROW" in found

    def test_explicit_prop_survives(self):
        doc = json.loads(json.dumps(MINIMAL_CIRCUIT))
        doc["connections"][0]["prop_ps"] = 7.25
        c = parse_circuit(doc)
        assert c.connections[0].prop == 7.25


def table_path(doc):
    """Diagnostics, gates and connections the type tables alone make of a
    circuit document's entries."""
    errs, gates, connections = [], [], []
    for i, e in enumerate(doc["gates"]):
        ent = e["id"] if isinstance(e.get("id"), str) else f"gates[{i}]"
        ingest._check_keys(e, ingest._GATE_TYPES, ent, errs)
        if ingest._check_missing(e, ingest._GATE_TYPES, ent, errs) and ingest._check_types(
            e, ingest._GATE_TYPES, ent, errs
        ):
            gates.append(Gate(e["id"], e["cell"], e["row"], float(e["clock_offset_ps"])))
    for i, e in enumerate(doc["connections"]):
        ent = f"connections[{i}]"
        ingest._check_keys(e, ingest._CONN_TYPES, ent, errs)
        if ingest._check_missing(e, ("src", "dst", "length_um"), ent, errs) and ingest._check_types(
            e, ingest._CONN_TYPES, ent, errs
        ):
            prop = e.get("prop_ps")
            connections.append(
                Connection(e["src"], e["dst"], float(e["length_um"]), None if prop is None else float(prop))
            )
    return errs, tuple(gates), tuple(connections)


def parser_seed_doc():
    """A valid circuit document; every other connection has no extracted delay."""
    doc = json.loads(serialize_circuit(generate_circuit(rows=4, width=2, seed=3, skip_prob=0.5)))
    for conn in doc["connections"][::2]:
        del conn["prop_ps"]
    doc["connections"][1]["prop_ps"] = None
    return doc


#: Single-field corruptions: drop a field, add a key, or set a field to a
#: value of the wrong JSON type, a non-finite number, an int no float can
#: hold, a fractional row or null.
CORRUPTIONS = [("missing",), ("extra",)] + [
    ("set", v) for v in (True, False, "x", math.nan, math.inf, -math.inf, 10**400, 1.7, None)
]
ENTRY_FIELDS = {"gates": sorted(ingest._GATE_TYPES), "connections": sorted(ingest._CONN_TYPES)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_inline_entry_check_agrees_with_type_tables(data):
    doc = parser_seed_doc()
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(sorted(ENTRY_FIELDS)))
        entry = doc[kind][data.draw(st.integers(0, len(doc[kind]) - 1))]
        corruption = data.draw(st.sampled_from(CORRUPTIONS))
        key = data.draw(st.sampled_from(ENTRY_FIELDS[kind]))
        if corruption[0] == "extra":
            entry["colour"] = "blue"
        elif corruption[0] == "missing":
            entry.pop(key, None)
        else:
            entry[key] = corruption[1]
    errs, gates, connections = table_path(doc)
    if errs:
        with pytest.raises(CircuitFormatError) as e:
            parse_circuit(doc)
        assert e.value.diagnostics == errs
    else:
        c = parse_circuit(doc)
        # repr tells 1 from 1.0, so the field types must match too.
        assert repr(c.gates) == repr(gates)
        assert repr(c.connections) == repr(connections)


class TestParseLibrary:
    def test_reference_fixture_anchor(self, ref_lib):
        assert ref_lib.timing("buffer").rd(200.0) == pytest.approx(72.0, abs=1e-12)

    def test_arity_mismatch(self, ref_lib):
        doc = json.loads(serialize_library(ref_lib))
        doc["cells"]["buffer"]["rd"] = [[0.3, 6.0]]
        with pytest.raises(LibraryFormatError) as e:
            parse_library(doc)
        assert "ARITY_MISMATCH" in codes(e)

    def test_shared_breakpoints_required(self, ref_lib):
        # Differing per-cell breakpoints cannot be expressed in the file
        # format itself (breakpoints are library-wide), so arity mismatches
        # are the observable failure of a cell diverging from the shared grid.
        doc = json.loads(serialize_library(ref_lib))
        doc["cells"]["buffer"]["rd"] = [[0.3, 6.0], [0.33, 3.0], [0.36, 0.0]]
        with pytest.raises(LibraryFormatError) as e:
            parse_library(doc)
        assert "ARITY_MISMATCH" in codes(e)

    def test_empty_cells(self, ref_lib):
        doc = json.loads(serialize_library(ref_lib))
        doc["cells"] = {}
        with pytest.raises(LibraryFormatError) as e:
            parse_library(doc)
        assert "EMPTY_LIBRARY" in codes(e)

    def test_unknown_key(self, ref_lib):
        doc = json.loads(serialize_library(ref_lib))
        doc["vendor"] = "acme"
        with pytest.raises(LibraryFormatError) as e:
            parse_library(doc)
        assert "UNKNOWN_KEY" in codes(e)

    def test_interconnect_sanity_enforced(self, ref_lib):
        doc = json.loads(serialize_library(ref_lib))
        doc["l_buffer_um"] = 500.0
        with pytest.raises(LibraryFormatError) as e:
            parse_library(doc)
        assert "INVALID_INTERCONNECT" in codes(e)


class TestRoundTrips:
    def test_circuit_round_trip_bit_identical(self, ref_lib):
        c = generate_circuit(rows=5, width=3, seed=11, chain_prob=0.5, skip_prob=0.3, lib=ref_lib)
        text = serialize_circuit(c)
        again = parse_circuit(text)
        assert again == c
        assert serialize_circuit(again) == text

    def test_library_round_trip_bit_identical(self, ref_lib):
        text = serialize_library(ref_lib)
        again = parse_library(text)
        assert serialize_library(again) == text
        assert again.cells.keys() == ref_lib.cells.keys()
        for name in again.cells:
            assert again.cells[name] == ref_lib.cells[name]

    def test_report_round_trip(self):
        sched = Schedule(period=200.0, row_deltas=(18.0,), slack=0.0, latency=18.0, segment_index=1)
        slacks = SlackReport(entries=(ConnectionSlack("a", "b", 0.0, 62.0),), min_slack=0.0)
        report = emit_report(sched, slacks, None, manifest={"tool_version": "x"})
        text = serialize_report(report)
        assert parse_report(text) == report


#: Names built from pieces the encoder escapes or passes through: quotes,
#: backslashes, newlines, a separator look-alike, non-ASCII text and lone
#: surrogates, plus any code point at all.
ODD_TEXT = st.lists(
    st.sampled_from(['"', "\\", "\n", '", "', "é", "µm", "\ud800", "\udfff", "g0_1"])
    | st.characters(exclude_categories=()),
    max_size=6,
).map("".join)
ODD_FLOATS = st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf]) | st.floats()
ODD_CIRCUITS = st.builds(
    Circuit,
    name=ODD_TEXT,
    num_rows=st.integers(-(2**70), 2**70),
    gates=st.lists(st.builds(Gate, ODD_TEXT, ODD_TEXT, st.integers(-(2**70), 2**70), ODD_FLOATS),
                   max_size=6),
    connections=st.lists(st.builds(Connection, ODD_TEXT, ODD_TEXT, ODD_FLOATS, st.none() | ODD_FLOATS),
                         max_size=6),
)
GENERATED_CIRCUITS = st.builds(
    generate_circuit,
    rows=st.integers(1, 12),
    width=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    chain_prob=st.sampled_from([0.0, 0.5, 1.0]),
    skip_prob=st.sampled_from([0.0, 0.5, 1.0]),
    adversarial=st.booleans(),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c=ODD_CIRCUITS | GENERATED_CIRCUITS)
def test_circuit_writer_matches_indent_2_json(c):
    assert serialize_circuit(c) == circuit_json_reference(c)


class TestEmitReport:
    def test_frequency_from_period(self):
        sched = Schedule(period=200.0, row_deltas=(18.0,), slack=0.0, latency=18.0)
        report = emit_report(sched, None, None)
        assert report["frequency_ghz"] == pytest.approx(5.0, abs=0)

    def test_empty_circuit_schedule(self):
        sched = Schedule(period=100.0, row_deltas=(), slack=0.0, latency=0.0)
        report = emit_report(sched, None, None)
        assert report["latency_ps"] == 0.0
        assert report["min_slack_ps"] is None
        assert report["connections"] == []

    def test_table_renders_all_fields(self):
        sched = Schedule(period=100.0, row_deltas=(18.0,), slack=0.0, latency=18.0)
        table = render_report_table(emit_report(sched, None, None))
        assert "10 GHz" in table
        assert "latency" in table

    def test_schedule_survives_report(self):
        sched = Schedule(period=250.0, row_deltas=(1.5, 2.5), slack=3.0, latency=4.0, segment_index=2)
        report = emit_report(sched, None, None)
        again = schedule_from_report(report)
        assert again == sched

    def test_missing_keys_rejected(self):
        with pytest.raises(ReportFormatError):
            parse_report(json.dumps({"format_version": 1}))
