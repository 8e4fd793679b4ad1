import itertools
import random

import pytest

from hypothesis import given, settings, strategies as st

from conftest import make_library
from oracles import chain_brute_force
from aqfpopt.bufferopt import (
    MalformedChainError,
    build_chain_graph,
    extract_chains,
    merged_length,
    remove_buffers,
    solve_chain,
)
from aqfpopt.cli import generate_circuit
from aqfpopt.model import BufferChain, Circuit, Connection, Gate, OptimizationConfig, validate_circuit
from aqfpopt.timing import build_constraints


def chain_of(segments, source="s", sink="t"):
    buffers = tuple(f"b{i}" for i in range(1, len(segments)))
    nodes = (source, *buffers, sink)
    conns = tuple(
        Connection(src=nodes[i], dst=nodes[i + 1], length=segments[i]) for i in range(len(segments))
    )
    return BufferChain(
        source=source, buffers=buffers, sink=sink, segment_lengths=tuple(segments), connections=conns
    )


def pipeline_with_chain(segments, cell="majority3"):
    """A straight circuit embedding one chain, one gate per row."""
    chain = chain_of(segments)
    gates = [Gate("s", cell, 0, 0.0)]
    for i, b in enumerate(chain.buffers):
        gates.append(Gate(b, "buffer", i + 1, float(i + 1)))
    gates.append(Gate("t", cell, len(segments), float(len(segments))))
    return Circuit(
        name="chain", num_rows=len(segments) + 1, gates=tuple(gates), connections=chain.connections
    )


@pytest.fixture(scope="module")
def lib(fixture_library):
    return fixture_library


class TestMergedLength:
    def test_two_buffer_span(self, lib):
        chain = chain_of([30.0, 30.0, 30.0])
        assert merged_length(chain, 0, 3, lib) == pytest.approx(110.0)

    def test_zero_removed(self, lib):
        chain = chain_of([30.0, 30.0, 30.0])
        assert merged_length(chain, 0, 1, lib) == pytest.approx(30.0)

    def test_single_buffer_case(self, lib):
        chain = chain_of([30.0, 30.0])
        assert merged_length(chain, 0, 2, lib) == pytest.approx(70.0)

    def test_invalid_span_rejected(self, lib):
        chain = chain_of([30.0, 30.0])
        with pytest.raises(ValueError):
            merged_length(chain, 2, 1, lib)

    @given(
        segments=st.lists(st.floats(min_value=0.1, max_value=60.0), min_size=1, max_size=8),
        i=st.integers(min_value=0, max_value=7),
        dj=st.integers(min_value=1, max_value=8),
    )
    def test_matches_direct_sum(self, segments, i, dj, lib):
        chain = chain_of(segments)
        j = min(i + dj, len(segments))
        if i >= j:
            return
        expected = sum(segments[i:j]) + (j - i - 1) * lib.l_buffer
        assert merged_length(chain, i, j, lib) == pytest.approx(expected)


class TestSolveChain:
    def test_full_removal_when_drivable(self, lib):
        kept, removed = solve_chain(chain_of([30.0, 30.0, 30.0]), lib)
        assert removed == 2
        assert kept == [0, 3]

    def test_tight_drive_keeps_later_buffer(self, lib):
        tight = make_library(lib.cells, l_max_drive=80.0)
        kept, removed = solve_chain(chain_of([30.0, 30.0, 30.0]), tight)
        assert removed == 1
        assert kept == [0, 2, 3]  # removes b1, keeps b2

    def test_empty_chain(self, lib):
        kept, removed = solve_chain(chain_of([30.0]), lib)
        assert removed == 0
        assert kept == [0, 1]

    def test_row_span_cap_limits_removal(self, lib):
        chain = chain_of([20.0, 20.0, 20.0])
        rows = [0, 1, 2, 3]
        kept, removed = solve_chain(chain, lib, node_rows=rows, max_skip=2)
        assert removed == 1  # both at once would span 3 rows
        kept_unc, removed_unc = solve_chain(chain, lib)
        assert removed_unc == 2

    def test_edges_require_drivability(self, lib):
        graph = build_chain_graph(chain_of([30.0, 30.0, 30.0]), make_library(lib.cells, l_max_drive=80.0))
        pairs = {(i, j) for i, j, _, _ in graph.edges}
        assert (0, 3) not in pairs
        assert {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)} <= pairs

    @given(
        segments=st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=9),
        l_buffer=st.floats(min_value=1.0, max_value=30.0),
        l_max=st.floats(min_value=105.0, max_value=260.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, segments, l_buffer, l_max, lib):
        rlib = make_library(lib.cells, l_buffer=l_buffer, l_max_drive=l_max)
        segments = [min(s, l_max) for s in segments]
        chain = chain_of(segments)
        kept, removed = solve_chain(chain, rlib)
        count, removed_ids = chain_brute_force(chain, rlib)
        assert removed == count
        assert tuple(k for k in range(len(segments) + 1) if k not in set(removed_ids)) == tuple(kept)

    @given(
        segments=st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=8),
        l_buffer=st.floats(min_value=1.0, max_value=30.0),
        l_max=st.floats(min_value=20.0, max_value=260.0),
        steps=st.lists(st.integers(min_value=0, max_value=2), min_size=8, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_oracle_matches_loop_enumeration(self, segments, l_buffer, l_max, steps, lib):
        # the numpy oracle against a plain loop over the same subsets
        rlib = make_library(lib.cells, l_buffer=l_buffer, l_max_drive=l_max)
        chain = chain_of(segments)
        m = len(chain.buffers)
        rows = [0] + [sum(steps[:k]) for k in range(1, m + 2)]
        best = (-1, ())
        for removed in (c for k in range(m, -1, -1) for c in itertools.combinations(range(1, m + 1), k)):
            kept = [k for k in range(m + 2) if k not in removed]
            if all(
                sum(segments[a:b]) + (b - a - 1) * l_buffer <= l_max and rows[b] - rows[a] <= 2
                for a, b in zip(kept, kept[1:])
            ):
                best = (len(removed), removed)
                break
        assert chain_brute_force(chain, rlib, node_rows=rows, max_skip=2) == best


class TestExtractChains:
    def test_single_chain(self, lib):
        c = pipeline_with_chain([30.0, 30.0, 30.0])
        chains = extract_chains(c)
        assert len(chains) == 1
        assert chains[0].buffers == ("b1", "b2")
        assert chains[0].segment_lengths == (30.0, 30.0, 30.0)

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
        assert {ch.buffers for ch in chains} == {("b1",), ("b2",)}

    def test_buffer_without_fanin_raises(self, lib):
        c = Circuit(
            name="bad",
            num_rows=2,
            gates=(Gate("b", "buffer", 0, 0.0), Gate("t", "majority3", 1, 1.0)),
            connections=(Connection("b", "t", 10.0),),
        )
        with pytest.raises(MalformedChainError):
            extract_chains(c)

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
        assert all(g.cell != "buffer" for g in rewritten.gates)
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
        (merged,) = rewritten.connections
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
        (merged,) = rewritten.connections
        # No extracted delay: the constraint build derives it from the merged
        # length, less the 2 ps base clock difference.
        assert merged.prop is None
        (tc,) = build_constraints(rewritten, lib, OptimizationConfig()).constraints
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
            for chain in extract_chains(c):
                node_rows = [c.gate(g).row for g in (chain.source, *chain.buffers, chain.sink)]
                total += chain_brute_force(chain, ref_lib, node_rows=node_rows, max_skip=2)[0]
            assert plan.buffers_removed == total
            assert validate_circuit(rewritten, ref_lib) == []
            for conn in rewritten.connections:
                assert conn.length <= ref_lib.l_max_drive + 1e-9

    def test_monotone_in_drive_length(self, lib):
        rng = random.Random(3)
        for _ in range(25):
            segments = [rng.uniform(5.0, 60.0) for _ in range(rng.randint(1, 7))]
            chain = chain_of(segments)
            removed = [
                solve_chain(chain, make_library(lib.cells, l_max_drive=lmax))[1]
                for lmax in (65.0, 90.0, 120.0, 200.0)
            ]
            assert removed == sorted(removed)

    def test_idempotent_second_pass(self, ref_lib):
        c = generate_circuit(rows=10, width=3, seed=42, chain_prob=0.9, lib=ref_lib)
        once, plan1 = remove_buffers(c, ref_lib, max_skip=2)
        twice, plan2 = remove_buffers(once, ref_lib, max_skip=2)
        assert plan2.buffers_removed == 0
        assert twice == once
