import gc
import io
import itertools
import json
import math
import random
import re
import tracemalloc
from functools import partial

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from aqfpopt import ingest
from aqfpopt.cli import main
from aqfpopt.generator import generate_circuit
from aqfpopt.ingest import (
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
from aqfpopt.model import (
    FINITE,
    REAL,
    Circuit,
    Connection,
    Diagnostic,
    Gate,
    OptimizationConfig,
    Schedule,
    ValidationError,
    float_column,
    validate_circuit,
)
from aqfpopt.timing import ConnectionSlack, SlackReport, SlackTable

from conftest import circuit_columns, circuit_text
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


#: ``parse_report`` with no names to share, under its own name in test ids.
PARSE_REPORT = pytest.param(partial(parse_report, names=()), id="parse_report")


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
        assert c.connections.prop[0] is None

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
        with pytest.raises(ValidationError) as e:
            parse_circuit(json.dumps(doc))
        assert "UNKNOWN_KEY" in codes(e)

    def test_format_version_required(self):
        doc = json.loads(json.dumps(MINIMAL_CIRCUIT))
        doc["format_version"] = 99
        with pytest.raises(ValidationError) as e:
            parse_circuit(json.dumps(doc))
        assert "BAD_FORMAT_VERSION" in codes(e)

    def test_malformed_json_reports_line(self):
        with pytest.raises(ValidationError) as e:
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
        c = parse_circuit(json.dumps(doc))
        assert c.connections.prop[0] == 7.25


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
    doc = json.loads(circuit_text(generate_circuit(rows=4, width=2, seed=3, skip_prob=0.5)))
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
    # comes as JSON text or as an open file.
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
    assert_parse_matches_tables(doc, (text, io.StringIO(text)))
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
            with pytest.raises(ValidationError) as e:
                parse_circuit(source)
            assert e.value.diagnostics == errs
        else:
            c = parse_circuit(source)
            # Compared as lists by value; repr tells 1 from 1.0, so the field types must match too.
            for table, records in ((c.gates, gates), (c.connections, connections)):
                assert repr(list(map(list, table.columns()))) == repr([list(column) for column in zip(*records)]
                                                                      or [[]] * 4)


@pytest.mark.parametrize("parse", [parse_circuit, parse_library, PARSE_REPORT])
@pytest.mark.parametrize("text", ['{"format_version": ' + "9" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
                         ids=["long-integer", "deep-nesting"])
def test_text_the_decoder_cannot_hold_is_a_parse_error(parse, text):
    # Both are valid JSON that json.loads rejects with a ValueError or a
    # RecursionError rather than a JSONDecodeError.
    with pytest.raises(ValidationError) as e:
        parse(text)
    assert [(d.code, d.entity) for d in e.value.diagnostics] == [("PARSE_ERROR", "document")]


class TestParseLibrary:
    def test_reference_fixture_anchor(self, ref_lib):
        assert ref_lib.timing("buffer").rd(200.0) == pytest.approx(72.0, abs=1e-12)

    def test_arity_mismatch(self, ref_lib):
        doc = json.loads(serialize_library(ref_lib))
        doc["cells"]["buffer"]["rd"] = [[0.3, 6.0]]
        with pytest.raises(ValidationError) as e:
            parse_library(json.dumps(doc))
        assert "ARITY_MISMATCH" in codes(e)

    def test_shared_breakpoints_required(self, ref_lib):
        # Differing per-cell breakpoints cannot be expressed in the file
        # format itself (breakpoints are library-wide), so arity mismatches
        # are the observable failure of a cell diverging from the shared grid.
        doc = json.loads(serialize_library(ref_lib))
        doc["cells"]["buffer"]["rd"] = [[0.3, 6.0], [0.33, 3.0], [0.36, 0.0]]
        with pytest.raises(ValidationError) as e:
            parse_library(json.dumps(doc))
        assert "ARITY_MISMATCH" in codes(e)

    def test_empty_cells(self, ref_lib):
        doc = json.loads(serialize_library(ref_lib))
        doc["cells"] = {}
        with pytest.raises(ValidationError) as e:
            parse_library(json.dumps(doc))
        assert "EMPTY_LIBRARY" in codes(e)

    def test_unknown_key(self, ref_lib):
        doc = json.loads(serialize_library(ref_lib))
        doc["vendor"] = "acme"
        with pytest.raises(ValidationError) as e:
            parse_library(json.dumps(doc))
        assert "UNKNOWN_KEY" in codes(e)

    @pytest.mark.parametrize("breakpoints,line", [
        ([0.0, 300.0, 100.0], "[NONMONOTONE_BREAKPOINTS] breakpoints_ps: breakpoints must be strictly increasing"),
        ([-1.0, 100.0, 300.0], "[NEGATIVE_BREAKPOINT] breakpoints_ps: first breakpoint must be >= 0"),
        ([5.0], "[ARITY_MISMATCH] breakpoints_ps: need at least two breakpoints"),
        ([0.0, 100.0, 250.0], "[BREAKPOINT_SPAN] library: breakpoints (0.0, 250.0] do not cover [200.0, 300.0]"),
    ], ids=["non-increasing", "negative", "single", "short-span"])
    def test_each_grid_fault_is_named_once(self, ref_lib, tmp_path, capsys, breakpoints, line):
        # The grid is the library's, so a fault in it gets one line, not one
        # per cell function (5 cells x 4 functions in the reference library).
        doc = json.loads(serialize_library(ref_lib))
        doc["breakpoints_ps"] = breakpoints
        lib_path = tmp_path / "bad.qlib.json"
        lib_path.write_text(json.dumps(doc))
        circ = tmp_path / "c.qc.json"
        circ.write_text(json.dumps(MINIMAL_CIRCUIT))
        capsys.readouterr()
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path)]) == 1
        assert capsys.readouterr().err == line + "\n"

    def test_interconnect_sanity_enforced(self, ref_lib):
        doc = json.loads(serialize_library(ref_lib))
        doc["l_buffer_um"] = 500.0
        with pytest.raises(ValidationError) as e:
            parse_library(json.dumps(doc))
        assert "INVALID_INTERCONNECT" in codes(e)


class TestRoundTrips:
    def test_circuit_round_trip_bit_identical(self, ref_lib):
        c = generate_circuit(rows=5, width=3, seed=11, chain_prob=0.5, skip_prob=0.3, lib=ref_lib)
        text = circuit_text(c)
        again = parse_circuit(text)
        assert circuit_columns(again) == circuit_columns(c)
        assert circuit_text(again) == text

    def test_library_round_trip_bit_identical(self, ref_lib):
        text = serialize_library(ref_lib)
        again = parse_library(text)
        assert serialize_library(again) == text
        assert again.cells.keys() == ref_lib.cells.keys()
        for name in again.cells:
            assert again.cells[name] == ref_lib.cells[name]

    def test_report_round_trip(self):
        sched = Schedule(period=200.0, row_deltas=(18.0,), slack=0.0, latency=18.0, segment_index=1)
        slacks = SlackReport(entries=SlackTable(["a"], ["b"], [0.0], [62.0]), min_slack=0.0)
        text = written_report(emit_report(sched, slacks, None, manifest={"tool_version": "x"}))
        reference = report_json_reference(sched, slacks, None, manifest={"tool_version": "x"})
        assert text == reference
        assert parse_report(io.StringIO(text), ()) == report_columns(json.loads(reference))
        assert schedule_from_report(parse_report(text, ())) == sched

    def test_endpoints_are_the_gates_own_ids(self, ref_lib):
        c = generate_circuit(rows=8, width=4, seed=3, chain_prob=0.5, skip_prob=0.5, lib=ref_lib)
        parsed = parse_circuit(circuit_text(c))
        ids, index = parsed.gates.id, parsed.gate_index
        for src, dst in zip(parsed.connections.src, parsed.connections.dst):
            assert src is ids[index[src]] and dst is ids[index[dst]]
        # One object per distinct cell name.
        assert len(set(map(id, parsed.gates.cell))) == len(set(parsed.gates.cell))


def report_columns(doc: dict) -> dict:
    """A decoded report document with its connections as ``parse_report``
    gives them: four columns, each the values of one key in entry order, the
    endpoints as lists and the slacks as float columns."""
    entries = doc["connections"]
    names = tuple([entry[key] for entry in entries] for key in ("src", "dst"))
    slacks = tuple(float_column(entry[key] for entry in entries) for key in ("setup_slack_ps", "hold_slack_ps"))
    return {**doc, "connections": names + slacks}


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
    assert circuit_text(c) == circuit_json_reference(c)


#: Endings for gate ids that look like the end of an entry or a list, so a
#: batch cut after a "}" inside one of them decodes nothing whole.
ID_ENDINGS = ["}", "]", "},", '"', '"}', "}]", '\\"},', "x"]
#: Spellings of the same document: compact, compact without spaces, indent 2.
LAYOUTS = [{}, {"separators": (",", ":")}, {"indent": 2}]


class Unseekable(io.StringIO):
    """Text that reads like a pipe: once, from its start."""

    def seekable(self):
        return False


def before(text, at: int, insert):
    """``text`` (a string or bytes) with ``insert`` put before its ``at``-th item."""
    return text[:at] + insert + text[at:]


class Recorded:
    """A pipe that records the size asked of each read: -1 asks for all that is left."""

    def __init__(self, data):
        super().__init__(data)
        self.sizes = []

    def seekable(self):
        return False

    def read(self, n=-1):
        self.sizes.append(n)
        return super().read(n)


class RecordedText(Recorded, io.StringIO):
    pass


class RecordedBytes(Recorded, io.BytesIO):
    pass


@pytest.mark.parametrize("spoiler", [None, "key", "comma"])
@pytest.mark.parametrize("parse", [parse_circuit, PARSE_REPORT, parse_library])
def test_a_pipe_is_never_read_whole(parse, spoiler, ref_lib, monkeypatch):
    # Whether the document is valid, has a field the rules turn down (an
    # unknown key) or is no JSON (a trailing comma), each read of a pipe of
    # text or of bytes asks for a number of characters or bytes, never for
    # the rest of it.
    text = {parse_circuit: circuit_text(generate_circuit(rows=4, width=2, seed=1)),
            parse_report: written_report(_slack_report(40)),
            parse_library: serialize_library(ref_lib)}[getattr(parse, "func", parse)]
    if spoiler == "key":
        text = '{"colour": 1, ' + text[1:]
    elif spoiler == "comma":
        text = before(text, text.rindex("}"), ",")
    monkeypatch.setattr(ingest, "READ_CHUNK", 64)
    for pipe in (RecordedText(text), RecordedBytes(text.encode())):
        if spoiler:
            with pytest.raises(ValidationError):
                parse(pipe)
        else:
            parse(pipe)
        assert pipe.sizes and min(pipe.sizes) >= 0, pipe.sizes


#: Ways to spoil a respelled circuit: a field of the wrong type, an unknown
#: key, a gate wrapped in an object or set in the connections list, and text
#: cut short, given a trailing comma, a list for a key or more text after it.
SPOILERS = [None, "row", "colour", "wrapped", "misplaced", "truncated", "comma", "key", "after"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c=GENERATED_CIRCUITS, seed=st.integers(0, 2**32 - 1))
def test_stream_reads_each_spelling_as_a_whole_decode(c, seed):
    # Read in chunks of 1 to 64 characters, from a string, a file, a pipe
    # or the file's bytes, a respelled circuit must give what a decode of the
    # whole text gives: the columns, their types and shared id strings of
    # json.loads's entries if it is valid, and the diagnostics of the type
    # tables or of the JSON error if not. So must a repeated gates key whose
    # dropped list holds entries, and an id holding "}", where a batch is
    # cut inside it.
    rng = random.Random(seed)
    doc = json.loads(circuit_text(c))
    doc["num_rows"] += rng.choice([0, 10**6])  # a number long enough to straddle a chunk's end
    # Most circuits keep "}" out of their ids, so their batches stay in the stream.
    endings = ID_ENDINGS if rng.random() < 0.3 else [end for end in ID_ENDINGS if "}" not in end]
    ids = {gid: gid + "".join(rng.choices(endings, k=rng.randint(0, 2))) for gid in c.gates.id}
    for gate in doc["gates"]:
        gate["id"] = ids[gate["id"]]
        if rng.random() < 0.2:
            gate["clock_offset_ps"] = round(gate["clock_offset_ps"])
    for conn in doc["connections"]:
        conn["src"], conn["dst"] = ids[conn["src"]], ids[conn["dst"]]
    for key in ("gates", "connections"):
        if rng.random() < 0.2:
            doc[key] = []
    for entry in doc["gates"] + doc["connections"]:
        if rng.random() < 0.3:  # keys in another order
            items = list(entry.items())
            rng.shuffle(items)
            entry.clear()
            entry.update(items)
    spoiler = rng.choice(SPOILERS)
    if doc["gates"] and spoiler in ("row", "colour", "wrapped", "misplaced"):
        gate = doc["gates"][rng.randrange(len(doc["gates"]))]
        if spoiler in ("row", "colour"):
            gate[spoiler] = "x"
        else:
            kind = "gates" if spoiler == "wrapped" else "connections"
            doc[kind].insert(rng.randint(0, len(doc[kind])), {"wrap": dict(gate)} if kind == "gates" else dict(gate))
    doc = dict(rng.sample(list(doc.items()), len(doc)))  # connections may come before gates
    layout = rng.choice(LAYOUTS)
    text = json.dumps(doc, **layout)
    stale = None
    if rng.random() < 0.3:  # gates given twice: json.loads keeps the last list
        key = json.dumps({"gates": 0}, **layout).split("0")[0].lstrip("{\n ")
        stale = rng.choice([[], doc["gates"][:2], [{"id": "stale"}], "x"])
        text = text.replace(key, f"{key}{json.dumps(stale, **layout)}, {key}", 1)
    if spoiler == "truncated":
        text = text[:rng.randrange(len(text))]
    elif spoiler == "comma":
        end = text.rindex(rng.choice("]}"))
        text = text[:end] + "," + text[end:]
    elif spoiler == "key":
        text = "{[]: 0, " + text[1:]
    elif spoiler == "after":
        text += rng.choice([" }", "x", " {}", "0"])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "READ_CHUNK", rng.randint(1, 64))
        sources = (text, io.StringIO(text), Unseekable(text), io.BytesIO(text.encode()))
        try:
            whole = json.loads(text)
        except json.JSONDecodeError as error:
            expected = [Diagnostic("PARSE_ERROR", f"line {error.lineno}", error.msg)]
            for source in sources:
                with pytest.raises(ValidationError) as e:
                    parse_circuit(source)
                assert e.value.diagnostics == expected
            return
        assert_parse_matches_tables(whole, sources)
        if table_path(whole)[0]:
            return
        parsed = parse_circuit(rng.choice([text, Unseekable(text)]))
    shared = {gid: gid for gid in parsed.gates.id}
    assert all(gid is shared[gid] for gid in parsed.gates.id)
    assert all(end is shared.get(end, end) for end in parsed.connections.src + parsed.connections.dst)
    assert len(set(map(id, parsed.gates.cell))) == len(set(parsed.gates.cell))


#: Ways to spoil a respelled report: a connection without ``src``, with a
#: string slack or an unknown key, or that is no object, and text cut short,
#: given a trailing comma or more text after it.
REPORT_SPOILERS = [None, "no-src", "string-slack", "colour", "not-an-object", "truncated", "comma", "after"]


def report_table_path(doc) -> list[Diagnostic]:
    """The diagnostics the type tables make of a decoded report document."""
    errs = []
    if ingest._check_report_header(doc, errs):
        for i, entry in enumerate(doc["connections"]):
            ent = f"connections[{i}]"
            ingest._check_keys(entry, ingest._SLACK_TYPES, ent, errs)
            if ingest._check_missing(entry, ingest._SLACK_TYPES, ent, errs):
                ingest._check_types(entry, ingest._SLACK_TYPES, ent, errs)
    return errs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(count=st.integers(0, 3), spoiler=st.sampled_from(REPORT_SPOILERS),
       shaped=st.sampled_from([None, "whole", "inside"]),
       stale=st.sampled_from([None, [], "entries", [{"src": "stale"}], "x"]), seed=st.integers(0, 2**32 - 1))
@example(count=2, spoiler=None, shaped="inside", stale=None, seed=1)
@example(count=2, spoiler=None, shaped=None, stale="entries", seed=2)
@example(count=2, spoiler="no-src", shaped=None, stale=None, seed=3)
@example(count=2, spoiler="string-slack", shaped=None, stale=None, seed=4)
@example(count=2, spoiler="colour", shaped=None, stale=None, seed=5)
@example(count=2, spoiler="not-an-object", shaped=None, stale=None, seed=6)
def test_stream_reads_each_report_spelling_as_a_whole_decode(count, spoiler, shaped, stale, seed):
    # A report's connections go through the circuit's stream. Read in chunks
    # of every size from 1 to 64 characters, or in one, from a string, a
    # file, a pipe or the file's bytes, a respelled report must give what a
    # decode of the whole text gives: its fields, with its connections as
    # the per-key columns of json.loads's entries, if it is valid, and the
    # diagnostics of the type tables or of the JSON error if not. So must a
    # repeated connections key whose dropped list holds entries, an
    # endpoint holding "}", and a manifest, or an object in it, shaped like
    # a connection.
    rng = random.Random(seed)
    endings = ID_ENDINGS if rng.random() < 0.3 else [end for end in ID_ENDINGS if "}" not in end]
    ids = [f"g{i}" + "".join(rng.choices(endings, k=rng.randint(0, 2))) for i in range(3)]
    entries = [ConnectionSlack(rng.choice(ids), rng.choice(ids), rng.uniform(-5, 5), rng.uniform(0, 60))
               for _ in range(count)]
    sched = Schedule(period=200.0, row_deltas=(18.0,), slack=0.0, latency=18.0, segment_index=1)
    slacks = SlackReport(SlackTable.of(entries), min((e.setup_slack for e in entries), default=None))
    doc = json.loads(written_report(emit_report(sched, slacks, None, manifest={"config": {}})))
    for entry in doc["connections"]:
        if rng.random() < 0.2:
            entry["hold_slack_ps"] = round(entry["hold_slack_ps"])
        if rng.random() < 0.3:  # keys in another order
            items = list(entry.items())
            rng.shuffle(items)
            entry.clear()
            entry.update(items)
    if shaped:  # the manifest, or an object in it, shaped like a connection
        entry = {"src": ids[0], "dst": ids[1], "setup_slack_ps": 1.0, "hold_slack_ps": 2.0}
        doc["manifest"] = entry if shaped == "whole" else {"config": {}, "inputs": entry}
    elif rng.random() < 0.2:  # four keys, but no connection's
        doc["chains"] = [{"source": ids[0], "sink": ids[1], "kept_nodes": [0], "removed_gate_ids": []}]
    if doc["connections"] and spoiler in ("no-src", "string-slack", "colour", "not-an-object"):
        i = rng.randrange(len(doc["connections"]))
        entry = doc["connections"][i]
        if spoiler == "no-src":
            del entry["src"]
        elif spoiler == "string-slack":
            entry["setup_slack_ps"] = "1"
        elif spoiler == "colour":
            entry["colour"] = "blue"
        else:
            doc["connections"][i] = [entry]
    doc = dict(rng.sample(list(doc.items()), len(doc)))
    layout = rng.choice(LAYOUTS)
    text = json.dumps(doc, **layout)
    if stale is not None:  # connections given twice: json.loads keeps the last list
        key = json.dumps({"connections": 0}, **layout).split("0")[0].lstrip("{\n ")
        stale = doc["connections"][:2] if stale == "entries" else stale
        text = text.replace(key, f"{key}{json.dumps(stale, **layout)}, {key}", 1)
    if spoiler == "truncated":
        text = text[:rng.randrange(len(text))]
    elif spoiler == "comma":
        end = text.rindex(rng.choice("]}"))
        text = text[:end] + "," + text[end:]
    elif spoiler == "after":
        text += rng.choice([" }", "x", " {}", "0"])
    try:
        whole = json.loads(text)
    except json.JSONDecodeError as error:
        errs = [Diagnostic("PARSE_ERROR", f"line {error.lineno}", error.msg)]
    else:
        errs = report_table_path(whole)
    sources = (str, io.StringIO, Unseekable, lambda text: io.BytesIO(text.encode()))
    with pytest.MonkeyPatch.context() as patch:
        for size in (*range(1, 65), len(text) + 1):
            patch.setattr(ingest, "READ_CHUNK", size)
            source = rng.choice(sources)(text)
            if errs:
                with pytest.raises(ValidationError) as e:
                    parse_report(source, ())
                assert e.value.diagnostics == errs, size
                continue
            parsed = parse_report(source, ())
            # repr tells 1 from 1.0, so the field types must match too.
            assert repr(parsed) == repr(report_columns(whole)), size
        if errs:
            return
        # An endpoint equal to a name given is that very string; any other
        # name is one object.
        fresh = ["".join(name) for name in ids[:2]]  # new strings equal to two of the names
        parsed = parse_report(rng.choice(sources)(text), fresh)
    names = dict(zip(fresh, fresh))
    assert all(names.setdefault(name, name) is name for name in parsed["connections"][0] + parsed["connections"][1])


#: Structural faults of a compact circuit text: a trailing comma in either
#: list or in the object, a missing ":", a missing "," between members or
#: between entries, and text after the document.
STRUCTURAL_FAULTS = {
    "gates": lambda text: before(text, text.index("]", text.index('"gates"')), ","),
    "connections": lambda text: before(text, text.index("]", text.index('"connections"')), ","),
    "object": lambda text: before(text, len(text) - 1, ","),
    "missing-colon": lambda text: text.replace('"name":', '"name"', 1),
    "missing-member-comma": lambda text: text.replace(', "num_rows"', ' "num_rows"', 1),
    "missing-entry-comma": lambda text: text.replace("}, {", "} {", 1),
    "after": lambda text: text + " {}",
}


@pytest.mark.parametrize("key", list(STRUCTURAL_FAULTS))
def test_trailing_comma_in_a_list_is_a_json_error_at_every_chunk_size(key, monkeypatch):
    # Each fault is named as json.loads names it, in the wording of the
    # running Python (3.13 names a trailing comma as such), however the
    # reads cut the text or its bytes. A read that ends between the last
    # entry and a list's "]" leaves a batch after the comma that decodes to
    # no entry at all.
    doc = json.loads(circuit_text(generate_circuit(rows=2, width=1, seed=1)))
    text = STRUCTURAL_FAULTS[key](json.dumps(doc))
    with pytest.raises(json.JSONDecodeError) as error:
        json.loads(text)
    expected = [Diagnostic("PARSE_ERROR", f"line {error.value.lineno}", error.value.msg)]
    for size in range(1, len(text) + 1):
        monkeypatch.setattr(ingest, "READ_CHUNK", size)
        for source in (text, io.BytesIO(text.encode())):
            with pytest.raises(ValidationError) as e:
                parse_circuit(source)
            assert e.value.diagnostics == expected, (size, source)


def undecodable(data: bytes) -> list[Diagnostic]:
    """The diagnostic of a whole decode of ``data``, none if it is UTF-8."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        return [Diagnostic("PARSE_ERROR", "document", str(e))]
    return []


@pytest.mark.parametrize("fault", [None, "json", "byte", "cut"])
def test_file_bytes_decode_as_their_text_at_every_chunk_size(fault, monkeypatch):
    # A file's bytes are decoded as they are read: a character of two to
    # four bytes may be cut by any read, and so may a "\r\n" line end. The
    # circuit must be what its text gives, a JSON fault must be named at the
    # line of that text, with "\r\n" read as one line end as a text file
    # reads it, and a byte that is not UTF-8, or a character cut short at
    # the end, by its offset in the file.
    doc = json.loads(circuit_text(generate_circuit(rows=2, width=2, seed=1)))
    doc["name"] = "µ-é€𝄞"
    text = json.dumps(doc, indent=2, ensure_ascii=False)
    if fault == "json":
        text = text.replace('"name":', '"name"', 1)
    data = text.replace("\n", "\r\n").encode()
    if fault == "byte":
        data = before(data, data.index("€".encode()) + 1, b"\xff")
    elif fault == "cut":
        data += "€".encode()[:2]

    def outcome(source) -> list:
        try:
            return [parse_circuit(source).name]
        except ValidationError as e:
            return e.diagnostics

    expected = undecodable(data) or outcome(text)
    assert (fault is None) == (expected == ["µ-é€𝄞"])
    for size in range(1, 65):
        monkeypatch.setattr(ingest, "READ_CHUNK", size)
        assert outcome(io.BytesIO(data)) == expected, size


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


# Counts on each side of a batch boundary, for the first batch and for the
# sixteenth (4096 is a whole number of batches). No shrink phase: each step
# would re-encode thousands of connections, and a failure already shows on the
# first example that meets it.
assert 4096 % B == 0
@pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 2 * B + 1, 4095, 4096, 4097, 8193])
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
    # A connection-free circuit has no STA minimum.
    entries = tuple(itertools.islice(itertools.cycle(pool), count))
    slacks = SlackReport(SlackTable.of(entries), None if count == 0 and no_sta else min_slack)
    report = emit_report(sched, slacks, stats, manifest=manifest, verbose=verbose)
    assert written_report(report) == report_json_reference(sched, slacks, stats, manifest, verbose)


class _Discard:
    def write(self, text):
        return len(text)


def _slack_report(count: int) -> dict:
    """A report of ``count`` connections."""
    entries = tuple(ConnectionSlack(f"g{i}_0", f"g{i}_1", i * 0.37, -i * 1.9) for i in range(count))
    return emit_report(Schedule(period=200.0, row_deltas=(1.0,), slack=0.0, latency=1.0),
                       SlackReport(SlackTable.of(entries), -count * 1.9), None, manifest={"tool_version": "x"})


def _chain_circuit(count: int) -> Circuit:
    """A circuit of ``count`` gates in a chain, and ``count`` connections, every other one without ``prop_ps``."""
    gates = [Gate(f"g{i}", "majority3", i, i * 0.37) for i in range(count)]
    conns = [Connection(f"g{i}", f"g{i + 1}", i * 0.5, None if i % 2 else i * 1.9) for i in range(count)]
    return Circuit("chain", count + 1, gates, conns)


#: Each writer, by name, with a maker of its document of ``count`` rows per list.
WRITERS = {"report": (serialize_report, _slack_report), "circuit": (serialize_circuit, _chain_circuit)}


def _writer_peak_bytes(count: int, writer: str = "report") -> int:
    """Peak traced allocation while a document of ``count`` rows per list goes to a sink."""
    write, make = WRITERS[writer]
    doc = make(count)
    tracemalloc.start()
    try:
        write(doc, _Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_writer_memory_does_not_grow_with_connections():
    # Each writer holds one batch at a time, so four times the rows must not
    # raise its peak.
    for writer in WRITERS:
        assert _writer_peak_bytes(8 * B, writer) <= 1.25 * _writer_peak_bytes(2 * B, writer), writer


def test_report_writer_splits_a_200x5_report():
    # A 200x5 report has 1.3-1.5k connections. Encoded as one batch its text
    # peaks at about 0.76 MB traced, above what the STA held before it, and
    # so set optimize's peak RSS; batches of 256 peak at about 0.14 MB.
    assert _writer_peak_bytes(1500) <= 200_000


def sorted_spelling(text: str) -> str:
    """The same circuit with sorted keys and integer clock offsets, so no entry
    is spelled as the writer spells it and ``connections`` come first."""
    doc = json.loads(text)
    for gate in doc["gates"]:
        gate["clock_offset_ps"] = round(gate["clock_offset_ps"])
    return json.dumps(doc, indent=2, sort_keys=True)


def traced_parse(source):
    """The circuit parsed from ``source``, with the bytes it retains and the peak while parsing."""
    tracemalloc.start()
    try:
        circuit = parse_circuit(source)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return circuit, retained, peak


@pytest.mark.parametrize("adversarial,sort_keys,from_file",
                         [(False, False, False), (True, False, False), (False, True, False), (True, True, False),
                          (False, False, True)],
                         ids=["False", "True", "sorted-False", "sorted-True", "file"])
def test_parse_memory_stays_near_the_records(adversarial, sort_keys, from_file, tmp_path):
    # The text, or the open file, is made before tracing starts, so the peak
    # leaves it out. The decoder puts each entry's values into the columns
    # at once, however it is spelled, so the peak is the columns plus a
    # little; holding every decoded object until the columns are built, as a
    # separate pass must, reads about 2.4 to 2.9 times them. A file is read
    # a chunk at a time: its whole bytes and text read about 2.7 times them.
    text = circuit_text(generate_circuit(rows=100, width=10, seed=1, adversarial=adversarial))
    spelled = sorted_spelling(text) if sort_keys else text
    if from_file:
        path = tmp_path / "c.qc.json"
        path.write_text(spelled, encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            circuit, retained, peak = traced_parse(fh)
    else:
        circuit, retained, peak = traced_parse(spelled)
    assert len(circuit.connections) > 1000
    assert peak <= 1.5 * retained
    if sort_keys:
        # Endpoints share the gates' id strings though connections come
        # first; a copy per endpoint retains about 1.4 times as much.
        assert retained <= 1.05 * traced_parse(text)[1]


@pytest.mark.parametrize("spelling", ["writer", "keys-reversed", "gates-twice"])
def test_parse_leaves_no_reference_cycle(spelling):
    # optimize runs with the collector off, so a cycle made while parsing
    # (say, a decoder hook that refers to itself, keeping the shared-string
    # dict alive) would hold its memory until the process ends.
    doc = json.loads(circuit_text(generate_circuit(rows=20, width=4, seed=3)))
    if spelling == "keys-reversed":
        doc["gates"] = [dict(reversed(g.items())) for g in doc["gates"]]
    text = json.dumps(doc)
    if spelling == "gates-twice":
        text = '{"gates": ' + json.dumps(doc["gates"][:2]) + ", " + text[1:]
    gc.disable()
    try:
        gc.collect()
        assert len(parse_circuit(text).gates) == 80
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_benchmark_circuit_and_gate_index_stay_under_3_5_mib():
    # The wide benchmark circuit (gen --rows 1000 --width 20 --seed 101000)
    # as columns, with its id strings and rows shared and every float column
    # an array('d'): 3.0-3.2 MiB on Python 3.10-3.13. With a float object per
    # clock offset and length it retained 4.2 MiB. Its gate index is built on
    # use and not kept, so it adds nothing here; kept, it made 5.2 MiB. A
    # record per gate and connection, each float boxed, with an id-to-record
    # index retained 7.3 MiB.
    text = circuit_text(generate_circuit(rows=1000, width=20, seed=101000))
    tracemalloc.start()
    try:
        circuit = parse_circuit(text)
        assert len(circuit.gate_index) == 20_000
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 3.5 * 2**20


def test_validation_keeps_no_gate_index(ref_lib):
    # On a large circuit the id-to-position dict is as large as a column of
    # floats, and only validation and buffer removal read it: validation
    # builds it once, resolves the endpoints by it and lets it go.
    c = parse_circuit(circuit_text(generate_circuit(rows=6, width=3, seed=2, chain_prob=0.5)))
    assert validate_circuit(c, ref_lib) == []
    assert [type(v) for v in vars(c).values()] == [tuple]  # the endpoints
    ids = c.gates.id
    assert [[ids[i] for i in column] for column in c.endpoints] == [c.connections.src, c.connections.dst]


class TestEmitReport:
    def test_frequency_from_period(self):
        sched = Schedule(period=200.0, row_deltas=(18.0,), slack=0.0, latency=18.0)
        report = emit_report(sched, SlackReport(SlackTable([], [], [], []), None))
        assert report["frequency_ghz"] == pytest.approx(5.0, abs=0)

    def test_empty_circuit_schedule(self):
        sched = Schedule(period=100.0, row_deltas=(), slack=0.0, latency=0.0)
        report = emit_report(sched, SlackReport(SlackTable([], [], [], []), None))
        assert report["latency_ps"] == 0.0
        assert report["min_slack_ps"] is None
        assert len(report["connections"]) == 0

    def test_table_renders_all_fields(self):
        sched = Schedule(period=100.0, row_deltas=(18.0,), slack=0.0, latency=18.0)
        table = render_report_table(emit_report(sched, SlackReport(SlackTable([], [], [], []), None)))
        assert "10 GHz" in table
        assert "latency" in table

    def test_schedule_survives_report(self):
        sched = Schedule(period=250.0, row_deltas=(1.5, 2.5), slack=3.0, latency=4.0, segment_index=2)
        report = emit_report(sched, SlackReport(SlackTable([], [], [], []), None))
        again = schedule_from_report(report)
        assert again == sched

    def test_missing_keys_rejected(self):
        with pytest.raises(ValidationError) as e:
            parse_report(json.dumps({"format_version": 1}), ())
        assert codes(e) == {"PARSE_ERROR"}

    @pytest.mark.parametrize("field", ["buffers_total", "buffers_removed"])
    @pytest.mark.parametrize("value", ["lots", -1, True, 2.5, None])
    def test_buffer_counts_are_counts(self, field, value):
        sched = Schedule(period=250.0, row_deltas=(1.5,), slack=3.0, latency=1.5)
        report = {**emit_report(sched, SlackReport(SlackTable([], [], [], []), None)), "connections": [], field: value}
        with pytest.raises(ValidationError) as e:
            parse_report(json.dumps(report), ())
        assert [str(d) for d in e.value.diagnostics] == [f"[PARSE_ERROR] report: {field} must be an integer >= 0"]


#: Values that one rule must judge alike in every field it checks (wrong JSON
#: types, non-finite numbers, an int no float holds, and plain numbers), each
#: with whether it is a finite number and whether it is a real number.
RULE_PROBES = [(True, False, False), ("1", False, False), (None, False, False), (math.nan, False, True),
               (math.inf, False, True), (-math.inf, False, True), (10**400, False, False), (1, True, True),
               (-0.0, True, True), (2.5, True, True)]


def diagnostic_lines(call) -> list[str]:
    """The diagnostics ``call()`` raises, as printed; none if it returns."""
    try:
        call()
    except ValidationError as e:
        return [str(d) for d in e.diagnostics]
    return []


def parse_with_offset(value, spoil_batch: bool, monkeypatch) -> tuple[bool, list[str]]:
    """Parse the seed circuit with ``value`` as its first gate's clock offset:
    whether an entry was checked alone, which it is when the column check
    turns its batch down, and the diagnostics. With ``spoil_batch`` the
    second gate holds an unknown key, so the column check turns down the
    batch of both and every value is checked in its entry alone."""
    doc = parser_seed_doc()
    doc["gates"][0]["clock_offset_ps"] = value
    if spoil_batch:
        doc["gates"][1]["colour"] = "blue"
    text = json.dumps(doc)
    checked = []
    check = ingest._check_entry
    monkeypatch.setattr(ingest, "_check_entry", lambda entry, *rest: checked.append(entry) or check(entry, *rest))
    lines = diagnostic_lines(lambda: parse_circuit(text))
    monkeypatch.undo()
    return bool(checked), lines


def library_rejects(value, ref_lib) -> bool:
    doc = json.loads(serialize_library(ref_lib))
    doc["l_buffer_um"] = value
    return "[PARSE_ERROR] library: l_buffer_um must be a finite number" in diagnostic_lines(
        lambda: parse_library(json.dumps(doc)))


def seed_report() -> dict:
    sched = Schedule(period=200.0, row_deltas=(18.0,), slack=0.0, latency=18.0, segment_index=1)
    return json.loads(written_report(emit_report(sched, SlackReport(SlackTable(["a"], ["b"], [0.0], [62.0]), 0.0))))


def row_delta_rejected(value) -> bool:
    doc = seed_report()
    doc["row_deltas_ps"][0] = value
    return "[PARSE_ERROR] report: row_deltas_ps must be a list of numbers" in diagnostic_lines(
        lambda: parse_report(json.dumps(doc), ()))


def connection_slack_rejected(value) -> bool:
    doc = seed_report()
    doc["connections"][0]["setup_slack_ps"] = value
    return "[PARSE_ERROR] connections[0]: setup_slack_ps must be a real number" in diagnostic_lines(
        lambda: parse_report(json.dumps(doc), ()))


@pytest.mark.parametrize("value,finite_number,real_number", RULE_PROBES, ids=["true", '"1"', "null", "NaN", "Infinity", "-Infinity", "10**400", "1", "-0.0", "2.5"])
def test_each_rule_judges_a_value_alike_in_every_field(value, finite_number, real_number, ref_lib, monkeypatch):
    # The circuit columns, each entry checked alone, the library, the report
    # and the run settings all check their fields with one rule set, so a
    # value one of them takes for a finite or a real number every field of
    # that rule takes for one too.
    column_turned_down, _ = parse_with_offset(value, False, monkeypatch)
    checked, entry_lines = parse_with_offset(value, True, monkeypatch)
    assert checked
    finite = {
        "clock_offset_ps, whole column": column_turned_down,
        "clock_offset_ps, one entry": "[PARSE_ERROR] g0_0: clock_offset_ps must be a finite number" in entry_lines,
        "l_buffer_um": library_rejects(value, ref_lib),
        "OptimizationConfig.s_min": bool(diagnostic_lines(lambda: OptimizationConfig(s_min=value))),
    }
    real = {
        "row_deltas_ps": row_delta_rejected(value),
        "setup_slack_ps": connection_slack_rejected(value),
        "OptimizationConfig.tau type": "[INVALID_CONFIG] tau: tau must be a real number" in diagnostic_lines(
            lambda: OptimizationConfig(tau=value)),
    }
    assert (FINITE.holds([value]), REAL.holds([value])) == (finite_number, real_number)
    assert finite == dict.fromkeys(finite, not finite_number)
    assert real == dict.fromkeys(real, not real_number)
