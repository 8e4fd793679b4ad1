import json
import re

import pytest

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
from aqfpopt.model import Schedule
from aqfpopt.timing import ConnectionSlack, SlackReport

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
