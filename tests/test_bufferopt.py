import hashlib
import itertools
import random

import pytest

from hypothesis import given, settings, strategies as st

from conftest import NO_CAP, circuit_columns, circuit_text, make_library, records
from oracles import chain_brute_force
from aqfpopt.bufferopt import (
    extract_chains,
    remove_buffers,
    solve_chain,
)
from aqfpopt.generator import generate_circuit
from aqfpopt.model import Circuit, Connection, Gate, OptimizationConfig, ValidationError, validate_circuit
from aqfpopt.timing import build_constraints


def chain_of(segments, props=None, source="s", sink="t"):
    """The hops of a chain through buffers b1, b2, ..., one per segment."""
    nodes = (source, *(f"b{i}" for i in range(1, len(segments))), sink)
    props = props or [None] * len(segments)
    return tuple(Connection(nodes[i], nodes[i + 1], segments[i], props[i]) for i in range(len(segments)))


def pipeline_with_chain(segments, props=None, rows=None, cell="majority3"):
    """A circuit that is one chain, its nodes in ``rows`` (default one per row)."""
    hops = chain_of(segments, props)
    rows = rows or list(range(len(segments) + 1))
    nodes = ("s", *(h.dst for h in hops))
    gates = tuple(
        Gate(g, cell if k in (0, len(segments)) else "buffer", rows[k], float(k)) for k, g in enumerate(nodes)
    )
    return Circuit(name="chain", num_rows=rows[-1] + 1, gates=gates, connections=hops)


@pytest.fixture(scope="module")
def lib(fixture_library):
    return fixture_library


class TestMergedLength:
    """Lengths and delays of the connections that ``remove_buffers`` merges."""

    def test_two_buffer_span(self, lib):
        rewritten, _ = remove_buffers(pipeline_with_chain([30.0, 30.0, 30.0]), lib, max_skip=NO_CAP)
        (merged,) = records(rewritten.connections)
        assert merged.length == pytest.approx(110.0)

    def test_zero_removed(self, lib):
        c = pipeline_with_chain([30.0, 30.0, 30.0])
        rewritten, plan = remove_buffers(c, make_library(lib.cells, l_max_drive=60.0), max_skip=NO_CAP)
        assert circuit_columns(rewritten) == circuit_columns(c)
        assert plan.chains[0].kept_nodes == (0, 1, 2, 3)

    def test_single_buffer_case(self, lib):
        rewritten, _ = remove_buffers(pipeline_with_chain([30.0, 30.0]), lib)
        (merged,) = records(rewritten.connections)
        assert merged.length == pytest.approx(70.0)

    @given(
        segments=st.lists(st.floats(min_value=0.1, max_value=60.0), min_size=2, max_size=8),
        props=st.lists(st.none() | st.floats(min_value=0.0, max_value=40.0), min_size=8, max_size=8),
        steps=st.lists(st.integers(min_value=1, max_value=2), min_size=8, max_size=8),
        l_max=st.floats(min_value=60.0, max_value=260.0),
        max_skip=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_sum(self, segments, props, steps, l_max, max_skip, lib):
        rlib = make_library(lib.cells, l_max_drive=l_max)
        rows = [sum(steps[:k]) for k in range(len(segments) + 1)]
        c = pipeline_with_chain(segments, props[:len(segments)], rows)
        hops = tuple(records(c.connections))
        rewritten, plan = remove_buffers(c, rlib, max_skip=NO_CAP if max_skip is None else max_skip)
        (chain,) = plan.chains
        kept = chain.kept_nodes
        merged = [k for k in records(rewritten.connections) if k not in hops]
        spans = [(a, b) for a, b in zip(kept, kept[1:]) if b > a + 1]
        assert len(merged) == len(spans)
        for conn, (a, b) in zip(merged, spans):
            replaced = hops[a:b]
            assert (conn.src, conn.dst) == (replaced[0].src, replaced[-1].dst)
            assert conn.length == pytest.approx(sum(h.length for h in replaced) + (b - a - 1) * rlib.l_buffer)
            if any(h.prop is None for h in replaced):
                assert conn.prop is None
            else:
                wire = (b - a - 1) * rlib.l_buffer * rlib.prop_per_um
                assert conn.prop == pytest.approx(sum(h.prop for h in replaced) + wire)
        assert chain.removed_gate_ids == tuple(h.dst for k, h in enumerate(hops[:-1]) if k + 1 not in kept)


class TestSolveChain:
    def test_full_removal_when_drivable(self, lib):
        assert solve_chain(chain_of([30.0, 30.0, 30.0]), [0, 1, 2, 3], lib, NO_CAP) == [0, 3]

    def test_tight_drive_keeps_later_buffer(self, lib):
        tight = make_library(lib.cells, l_max_drive=80.0)
        # removes b1, keeps b2
        assert solve_chain(chain_of([30.0, 30.0, 30.0]), [0, 1, 2, 3], tight, NO_CAP) == [0, 2, 3]

    def test_empty_chain(self, lib):
        assert solve_chain(chain_of([30.0]), [0, 1], lib, NO_CAP) == [0, 1]

    def test_row_span_cap_limits_removal(self, lib):
        hops = chain_of([20.0, 20.0, 20.0])
        rows = [0, 1, 2, 3]
        assert solve_chain(hops, rows, lib, 2) == [0, 2, 3]  # both at once would span 3 rows
        assert solve_chain(hops, rows, lib, NO_CAP) == [0, 3]
        # A hop that itself skips too far stays, for the constraint build to report.
        assert solve_chain(chain_of([10.0, 10.0]), [0, 3, 4], lib, 2) == [0, 1, 2]

    def test_edges_require_drivability(self, lib):
        tight = make_library(lib.cells, l_max_drive=80.0)
        hops = chain_of([30.0, 30.0, 30.0])
        kept = solve_chain(hops, [0, 1, 2, 3], tight, NO_CAP)
        for a, b in zip(kept, kept[1:]):
            assert sum(h.length for h in hops[a:b]) + (b - a - 1) * tight.l_buffer <= 80.0

    @given(
        segments=st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=9),
        l_buffer=st.floats(min_value=1.0, max_value=30.0),
        l_max=st.floats(min_value=105.0, max_value=260.0),
        steps=st.lists(st.integers(min_value=1, max_value=2), min_size=9, max_size=9),
        max_skip=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, segments, l_buffer, l_max, steps, max_skip, lib):
        rlib = make_library(lib.cells, l_buffer=l_buffer, l_max_drive=l_max)
        segments = [min(s, l_max) for s in segments]
        rows = [sum(steps[:k]) for k in range(len(segments) + 1)]
        kept = solve_chain(chain_of(segments), rows, rlib, NO_CAP if max_skip is None else max_skip)
        count, removed_ids = chain_brute_force(segments, rlib, node_rows=rows, max_skip=max_skip)
        assert len(segments) + 1 - len(kept) == count
        assert tuple(k for k in range(len(segments) + 1) if k not in set(removed_ids)) == tuple(kept)

    @given(
        segments=st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=8),
        l_buffer=st.floats(min_value=1.0, max_value=30.0),
        l_max=st.floats(min_value=20.0, max_value=260.0),
        steps=st.lists(st.integers(min_value=1, max_value=3), min_size=8, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_oracle_matches_loop_enumeration(self, segments, l_buffer, l_max, steps, lib):
        # the numpy oracle against a plain loop over the same subsets
        rlib = make_library(lib.cells, l_buffer=l_buffer, l_max_drive=l_max)
        m = len(segments) - 1
        rows = [0] + [sum(steps[:k]) for k in range(1, m + 2)]
        best = None
        for removed in (c for k in range(m, -1, -1) for c in itertools.combinations(range(1, m + 1), k)):
            kept = [k for k in range(m + 2) if k not in removed]
            if all(
                b == a + 1
                or (sum(segments[a:b]) + (b - a - 1) * l_buffer <= l_max and rows[b] - rows[a] <= 2)
                for a, b in zip(kept, kept[1:])
            ):
                best = (len(removed), removed)
                break
        assert chain_brute_force(segments, rlib, node_rows=rows, max_skip=2) == best


class TestExtractChains:
    def test_single_chain(self, lib):
        c = pipeline_with_chain([30.0, 30.0, 30.0])
        chains = extract_chains(c)
        assert chains == [tuple(records(c.connections))]
        assert tuple(h.dst for h in chains[0][:-1]) == ("b1", "b2")

    def test_no_buffers(self, two_row_circuit):
        assert extract_chains(two_row_circuit) == []

    def test_splitter_feeding_two_chains(self, lib):
        gates = (
            Gate("sp", "majority3", 0, 0.0),
            Gate("b1", "buffer", 1, 1.0),
            Gate("b2", "buffer", 1, 1.5),
            Gate("t1", "majority3", 2, 2.0),
            Gate("t2", "majority3", 2, 2.5),
        )
        conns = (
            Connection("sp", "b1", 20.0),
            Connection("sp", "b2", 20.0),
            Connection("b1", "t1", 20.0),
            Connection("b2", "t2", 20.0),
        )
        c = Circuit(name="fan", num_rows=3, gates=gates, connections=conns)
        chains = extract_chains(c)
        assert len(chains) == 2
        assert chains == [conns[0::2], conns[1::2]]

    def test_buffer_without_fanin_raises(self, lib):
        c = Circuit(
            name="bad",
            num_rows=2,
            gates=(Gate("b", "buffer", 0, 0.0), Gate("t", "majority3", 1, 1.0)),
            connections=(Connection("b", "t", 10.0),),
        )
        with pytest.raises(ValidationError) as e:
            extract_chains(c)
        assert [(d.code, d.entity) for d in e.value.diagnostics] == [("MALFORMED_CHAIN", "b")]

    def test_high_fanout_buffer_excluded(self, lib, capsys):
        gates = (
            Gate("s", "majority3", 0, 0.0),
            Gate("b", "buffer", 1, 1.0),
            Gate("t1", "majority3", 2, 2.0),
            Gate("t2", "majority3", 2, 2.5),
        )
        conns = (
            Connection("s", "b", 10.0),
            Connection("b", "t1", 10.0),
            Connection("b", "t2", 10.0),
        )
        c = Circuit(name="fanout", num_rows=3, gates=gates, connections=conns)
        assert extract_chains(c) == []
        assert capsys.readouterr().err == "WARNING aqfpopt: buffer b has fanout 2, excluded from chains\n"


class TestRemoveBuffers:
    def test_independent_chains_fully_removed(self, lib):
        # three disjoint single-buffer chains, each drivable after merging
        gates, conns = [], []
        for k in range(3):
            gates += [
                Gate(f"s{k}", "majority3", 0, 0.1 * k),
                Gate(f"b{k}", "buffer", 1, 1.0 + 0.1 * k),
                Gate(f"t{k}", "majority3", 2, 2.0 + 0.1 * k),
            ]
            conns += [Connection(f"s{k}", f"b{k}", 30.0), Connection(f"b{k}", f"t{k}", 30.0)]
        c = Circuit(name="three", num_rows=3, gates=tuple(gates), connections=tuple(conns))
        rewritten, plan = remove_buffers(c, lib)
        assert plan.buffers_total == 3
        assert plan.buffers_removed == 3
        assert plan.buffers_removed == sum(len(r.removed_gate_ids) for r in plan.chains)
        assert "buffer" not in rewritten.gates.cell
        assert validate_circuit(rewritten, lib) == []

    def test_no_chains_identity(self, two_row_circuit, lib):
        rewritten, plan = remove_buffers(two_row_circuit, lib)
        assert rewritten == two_row_circuit
        assert plan.buffers_total == 0 and plan.buffers_removed == 0

    def test_merged_prop_from_explicit_segments(self, lib):
        chain_conns = (
            Connection("s", "b1", 30.0, prop=3.5),
            Connection("b1", "t", 30.0, prop=4.5),
        )
        c = Circuit(
            name="p",
            num_rows=3,
            gates=(
                Gate("s", "majority3", 0, 0.0),
                Gate("b1", "buffer", 1, 1.0),
                Gate("t", "majority3", 2, 2.0),
            ),
            connections=chain_conns,
        )
        rewritten, plan = remove_buffers(c, lib)
        (merged,) = records(rewritten.connections)
        assert merged.length == pytest.approx(70.0)
        # explicit extracted delays add up, plus wire delay across the buffer
        assert merged.prop == pytest.approx(3.5 + 4.5 + lib.l_buffer * lib.prop_per_um)

    def test_merged_prop_lazy_when_any_segment_lazy(self, lib):
        chain_conns = (
            Connection("s", "b1", 30.0, prop=3.5),
            Connection("b1", "t", 30.0),
        )
        c = Circuit(
            name="p",
            num_rows=3,
            gates=(
                Gate("s", "majority3", 0, 0.0),
                Gate("b1", "buffer", 1, 1.0),
                Gate("t", "majority3", 2, 2.0),
            ),
            connections=chain_conns,
        )
        rewritten, _ = remove_buffers(c, lib)
        (merged,) = records(rewritten.connections)
        # No extracted delay: the constraint build derives it from the merged
        # length, less the 2 ps base clock difference.
        assert merged.prop is None
        (tc,) = records(build_constraints(rewritten, lib, OptimizationConfig()).constraints)
        assert tc.rhs == pytest.approx(70.0 * lib.prop_per_um - 2.0)

    def test_randomized_decomposition_and_safety(self, ref_lib):
        rng = random.Random(7)
        for trial in range(10):
            c = generate_circuit(
                rows=rng.randint(6, 12),
                width=rng.randint(2, 4),
                seed=rng.randint(0, 10**6),
                chain_prob=0.8,
                lib=ref_lib,
            )
            rewritten, plan = remove_buffers(c, ref_lib, max_skip=2)
            total = 0
            row = dict(zip(c.gates.id, c.gates.row))
            for hops in extract_chains(c):
                rows = [row[hops[0].src]] + [row[h.dst] for h in hops]
                total += chain_brute_force([h.length for h in hops], ref_lib, node_rows=rows, max_skip=2)[0]
            assert plan.buffers_removed == total
            assert validate_circuit(rewritten, ref_lib) == []
            assert all(length <= ref_lib.l_max_drive + 1e-9 for length in rewritten.connections.length)

    def test_monotone_in_drive_length(self, lib):
        rng = random.Random(3)
        for _ in range(25):
            segments = [rng.uniform(5.0, 60.0) for _ in range(rng.randint(1, 7))]
            hops, rows = chain_of(segments), list(range(len(segments) + 1))
            removed = [
                len(segments) + 1 - len(solve_chain(hops, rows, make_library(lib.cells, l_max_drive=lmax), NO_CAP))
                for lmax in (65.0, 90.0, 120.0, 200.0)
            ]
            assert removed == sorted(removed)

    def test_idempotent_second_pass(self, ref_lib):
        c = generate_circuit(rows=10, width=3, seed=42, chain_prob=0.9, lib=ref_lib)
        once, plan1 = remove_buffers(c, ref_lib, max_skip=2)
        twice, plan2 = remove_buffers(once, ref_lib, max_skip=2)
        assert plan2.buffers_removed == 0
        assert circuit_columns(twice) == circuit_columns(once)

    def test_output_is_pinned(self, ref_lib):
        c = generate_circuit(rows=60, width=5, seed=7, chain_prob=0.8, skip_prob=0.3, lib=ref_lib)
        rewritten, plan = remove_buffers(c, ref_lib, max_skip=2)
        digest = hashlib.sha256(circuit_text(rewritten).encode()).hexdigest()
        assert digest == "bfd45ed6445ee7f8df8e247774ea949491460b0f4dff68c69af11ed0ee2b04bd"
        assert (len(plan.chains), plan.buffers_removed, plan.buffers_total) == (40, 55, 86)
