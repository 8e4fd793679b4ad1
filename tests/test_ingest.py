import io
import itertools
import json
import math
import re
import tracemalloc

import pytest
from hypothesis import Phase, given, settings, strategies as st

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
from aqfpopt.bufferopt import ChainRemoval, RemovalPlan
from aqfpopt.model import Circuit, Connection, Diagnostic, Gate, Schedule
from aqfpopt.timing import ConnectionSlack, SlackReport

from oracles import circuit_json_reference, report_json_reference

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
    circuit document; None for the entries if its top level already fails."""
    errs, gates, connections = [], [], []
    if doc.get("format_version") != 1:
        message = f"expected format_version 1, got {doc.get('format_version')!r}"
        errs.append(Diagnostic("BAD_FORMAT_VERSION", "circuit", message))
    ingest._check_keys(doc, ingest._CIRCUIT_KEYS, "circuit", errs)
    ingest._check_missing(doc, ("name", "num_rows"), "circuit", errs)
    if not ingest._check_types(doc, ingest._CIRCUIT_TYPES, "circuit", errs):
        return errs, None, None
    for i, e in enumerate(doc.get("gates", [])):
        ent = e["id"] if isinstance(e.get("id"), str) else f"gates[{i}]"
        ingest._check_keys(e, ingest._GATE_TYPES, ent, errs)
        if ingest._check_missing(e, ingest._GATE_TYPES, ent, errs) and ingest._check_types(
            e, ingest._GATE_TYPES, ent, errs
        ):
            gates.append(Gate(e["id"], e["cell"], e["row"], float(e["clock_offset_ps"])))
    for i, e in enumerate(doc.get("connections", [])):
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
#: Objects a decoder could take for entries: a gate, and connections without
#: a delay, with a null delay and with a delay.
ENTRY_OBJECTS = [parser_seed_doc()["gates"][0]] + parser_seed_doc()["connections"][:4]
#: Where such an object can sit other than in its own list: in the other list,
#: under a top-level field or an unknown key, in an entry's field, or as the
#: whole document.
PLACES = ("gates", "connections", "name", "format_version", "colour", "entry", "document")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_inline_entry_check_agrees_with_type_tables(data):
    # The decoder's records, and the type tables' diagnostics for everything
    # else, must be what the tables alone make of the document, whether it
    # comes as a dict, as JSON text or as an open file.
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
    # Valid spellings no record spells back: keys in reverse order, or an
    # integer where the writer puts a float.
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(sorted(ENTRY_FIELDS)))
        entry = doc[kind][data.draw(st.integers(0, len(doc[kind]) - 1))]
        floats = [key for key, value in entry.items() if type(value) is float]
        if floats and data.draw(st.booleans()):
            entry[data.draw(st.sampled_from(floats))] = 2
        else:
            items = list(entry.items())[::-1]
            entry.clear()
            entry.update(items)
    for _ in range(data.draw(st.integers(0, 2))):
        obj = json.loads(json.dumps(data.draw(st.sampled_from(ENTRY_OBJECTS))))
        obj = data.draw(st.sampled_from([obj, [obj], {"k": obj}])) if data.draw(st.booleans()) else obj
        place = data.draw(st.sampled_from(PLACES))
        if place == "document":
            doc = obj if isinstance(obj, dict) else {"k": obj}
        elif place in ("gates", "connections") and isinstance(doc.get(place), list):
            doc[place].insert(data.draw(st.integers(0, len(doc[place]))), obj)
        elif place == "entry" and isinstance(doc.get("gates"), list):
            kind = data.draw(st.sampled_from(sorted(ENTRY_FIELDS)))
            entry = doc[kind][data.draw(st.integers(0, len(doc[kind]) - 1))]
            entry[data.draw(st.sampled_from(ENTRY_FIELDS[kind]))] = obj
        elif place not in ("gates", "connections", "entry"):
            doc[place] = obj
    text = json.dumps(doc)
    assert_parse_matches_tables(doc, (doc, text, io.StringIO(text)))
    assert json.dumps(doc) == text  # a dict document is left as it was
    # Repeated keys exist only in JSON text. An entry spells one of its keys
    # again, before or after the first spelling, with another entry's value
    # or a wrong one; json.loads keeps the last value at the first key's place.
    spelled = dict(doc)
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(sorted(ENTRY_FIELDS)))
        if not isinstance(doc.get(kind), list) or not doc[kind]:
            continue
        spelled[kind] = entries = list(spelled[kind])
        i = data.draw(st.integers(0, len(entries) - 1))
        if not isinstance(entries[i], (dict, Pairs)):
            continue
        entries[i] = pairs = Pairs(entries[i].items() if isinstance(entries[i], dict) else entries[i])
        key = data.draw(st.sampled_from(ENTRY_FIELDS[kind]))
        other = doc[kind][data.draw(st.integers(0, len(entries) - 1))]
        value = data.draw(st.sampled_from([other.get(key) if isinstance(other, dict) else 1.5, "x", 7, None]))
        pairs.insert(data.draw(st.integers(0, len(pairs))), (key, value))
    text = json_text(spelled)
    assert_parse_matches_tables(json.loads(text), (text, io.StringIO(text)))


class Pairs(list):
    """The (key, value) pairs of a JSON object, a key possibly more than once."""


def json_text(v) -> str:
    """JSON text of ``v``, each ``Pairs`` spelled as an object with its keys as listed."""
    if isinstance(v, (Pairs, dict)):
        pairs = v if isinstance(v, Pairs) else v.items()
        return "{" + ", ".join(f"{json.dumps(k)}: {json_text(x)}" for k, x in pairs) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(map(json_text, v)) + "]"
    return json.dumps(v)


def assert_parse_matches_tables(doc, sources):
    """``parse_circuit`` of each source makes what ``table_path(doc)`` makes."""
    errs, gates, connections = table_path(doc)
    for source in sources:
        if errs:
            with pytest.raises(CircuitFormatError) as e:
                parse_circuit(source)
            assert e.value.diagnostics == errs
        else:
            c = parse_circuit(source)
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
        text = written_report(emit_report(sched, slacks, None, manifest={"tool_version": "x"}))
        reference = report_json_reference(sched, slacks, None, manifest={"tool_version": "x"})
        assert text == reference
        assert parse_report(io.StringIO(text)) == json.loads(reference)
        assert schedule_from_report(parse_report(text)) == sched

    def test_endpoints_are_the_gates_own_ids(self, ref_lib):
        c = generate_circuit(rows=8, width=4, seed=3, chain_prob=0.5, skip_prob=0.5, lib=ref_lib)
        parsed = parse_circuit(serialize_circuit(c))
        gates = parsed.gates_by_id
        for conn in parsed.connections:
            assert conn.src is gates[conn.src].id and conn.dst is gates[conn.dst].id
        # One object per distinct cell name.
        assert len({id(g.cell) for g in parsed.gates}) == len({g.cell for g in parsed.gates})


def written_report(report) -> str:
    out = io.StringIO()
    serialize_report(report, out)
    return out.getvalue()


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


B = ingest.REPORT_BATCH
ODD_PLANS = st.builds(
    RemovalPlan,
    chains=st.lists(st.builds(ChainRemoval, ODD_TEXT, ODD_TEXT, st.lists(st.integers()).map(tuple),
                              st.lists(ODD_TEXT, max_size=3).map(tuple)),
                    max_size=3).map(tuple),
    buffers_total=st.integers(),
    buffers_removed=st.integers(),
)
ODD_MANIFESTS = st.none() | st.dictionaries(ODD_TEXT, st.none() | ODD_FLOATS | ODD_TEXT, max_size=4)


# No shrink phase: each step would re-encode thousands of connections, and a
# failure already shows on the first example that meets it.
@pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 2 * B + 1])
@settings(max_examples=8, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    pool=st.lists(st.builds(ConnectionSlack, ODD_TEXT, ODD_TEXT, ODD_FLOATS, ODD_FLOATS), min_size=1, max_size=5),
    sched=st.builds(Schedule, ODD_FLOATS.filter(bool), st.lists(ODD_FLOATS, max_size=3), ODD_FLOATS, ODD_FLOATS,
                    st.integers()),
    min_slack=st.none() | ODD_FLOATS,
    no_sta=st.booleans(),
    stats=st.none() | ODD_PLANS,
    manifest=ODD_MANIFESTS,
    verbose=st.booleans(),
)
def test_report_writer_matches_compact_json(count, pool, sched, min_slack, no_sta, stats, manifest, verbose):
    # A connection-free circuit has no STA at all; the writer sees None.
    entries = tuple(itertools.islice(itertools.cycle(pool), count))
    slacks = None if count == 0 and no_sta else SlackReport(entries, min_slack)
    report = emit_report(sched, slacks, stats, manifest=manifest, verbose=verbose)
    assert written_report(report) == report_json_reference(sched, slacks, stats, manifest, verbose)


class _Discard:
    def write(self, text):
        return len(text)


def _writer_peak_bytes(count: int) -> int:
    """Peak traced allocation while ``count`` connections go to a sink."""
    entries = tuple(ConnectionSlack(f"g{i}_0", f"g{i}_1", i * 0.37, -i * 1.9) for i in range(count))
    report = emit_report(Schedule(period=200.0, row_deltas=(1.0,), slack=0.0, latency=1.0),
                         SlackReport(entries, -count * 1.9), None, manifest={"tool_version": "x"})
    tracemalloc.start()
    try:
        serialize_report(report, _Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_writer_memory_does_not_grow_with_connections():
    # The writer holds one batch at a time, so four times the connections
    # must not raise its peak.
    assert _writer_peak_bytes(8 * B) <= 1.25 * _writer_peak_bytes(2 * B)


@pytest.mark.parametrize("adversarial", [False, True])
def test_parse_memory_stays_near_the_records(adversarial):
    # The text is made before tracing starts, so the peak leaves it out. The
    # decoder turns each entry into its record at once, so the peak is the
    # records plus a little; holding every decoded object until the records
    # are built, as a separate pass must, reads about 2.4 to 2.9 times them.
    text = serialize_circuit(generate_circuit(rows=100, width=10, seed=1, adversarial=adversarial))
    tracemalloc.start()
    try:
        circuit = parse_circuit(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(circuit.connections) > 1000
    assert peak <= 1.5 * retained


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
