"""Globally optimal removal of path-balancing buffers.

Each maximal single-fanin/single-fanout run of buffer cells forms a chain.
Removing a span of buffers is legal when the merged interconnect (routed
hops plus one intrinsic buffer length per eliminated buffer) stays within
the library drive limit, and optionally when the resulting connection does
not skip more rows than the scheduler is asked to support. Per chain, the
best removal is a maximum-weight source-to-sink path on a small DAG whose
edge weights count eliminated buffers; chains are independent, so per-chain
optima add up to the global optimum.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from aqfpopt.model import (
    BUFFER_CELL,
    BufferChain,
    CellLibrary,
    Circuit,
    Connection,
    Diagnostic,
    ValidationError,
)

log = logging.getLogger("aqfpopt")


class MalformedChainError(ValidationError):
    pass


@dataclass(frozen=True)
class ChainGraph:
    """Removal DAG of one chain: nodes 0..m+1, edges (i, j) with i < j.

    An edge exists iff every buffer strictly between its endpoints can be
    eliminated under the drive-length (and optional row-span) constraint;
    its weight j - i - 1 counts those buffers.
    """

    num_nodes: int
    edges: tuple[tuple[int, int, int, float], ...]  # (i, j, weight, merged length)


@dataclass(frozen=True)
class ChainRemoval:
    source: str
    sink: str
    kept_nodes: tuple[int, ...]
    removed_gate_ids: tuple[str, ...]
    merged_connections: tuple[Connection, ...]


@dataclass(frozen=True)
class RemovalPlan:
    chains: tuple[ChainRemoval, ...]
    buffers_total: int
    buffers_removed: int


def extract_chains(c: Circuit) -> list[BufferChain]:
    """Collect every maximal buffer run bounded by non-chain gates.

    A buffer with more than one fanout cannot sit inside a chain; it is
    skipped with a logged diagnostic. A buffer without exactly one fanin is
    malformed and raises, since no consistent chain can contain it.
    """
    fanin = c.fanin
    fanout = c.fanout
    chainable: set[str] = set()
    for g in c.gates:
        if g.cell != BUFFER_CELL:
            continue
        if len(fanin[g.id]) != 1:
            raise MalformedChainError(
                [
                    Diagnostic(
                        "MALFORMED_CHAIN",
                        g.id,
                        f"buffer has {len(fanin[g.id])} fanins, expected exactly 1",
                    )
                ]
            )
        if len(fanout[g.id]) != 1:
            log.warning("buffer %s has fanout %d, excluded from chains", g.id, len(fanout[g.id]))
            continue
        chainable.add(g.id)

    chains: list[BufferChain] = []
    for g in c.gates:  # deterministic order: first buffer of each run
        if g.id not in chainable:
            continue
        upstream = fanin[g.id][0].src
        if upstream in chainable:
            continue  # interior of a run, handled from its head
        buffers = [g.id]
        conns = [fanin[g.id][0]]
        cur = g.id
        while True:
            out = fanout[cur][0]
            conns.append(out)
            if out.dst in chainable:
                buffers.append(out.dst)
                cur = out.dst
            else:
                break
        chains.append(
            BufferChain(
                source=conns[0].src,
                buffers=tuple(buffers),
                sink=conns[-1].dst,
                segment_lengths=tuple(k.length for k in conns),
                connections=tuple(conns),
            )
        )
    return chains


def merged_length(chain: BufferChain, i: int, j: int, lib: CellLibrary) -> float:
    """Pin-to-pin length after removing the buffers strictly between i and j.

    Every eliminated buffer keeps its intrinsic pin-to-pin length in the
    merged route.
    """
    if not 0 <= i < j <= len(chain.buffers) + 1:
        raise ValueError(f"invalid span ({i}, {j}) for a chain of {len(chain.buffers)} buffers")
    return sum(chain.segment_lengths[i:j]) + (j - i - 1) * lib.l_buffer


def build_chain_graph(
    chain: BufferChain,
    lib: CellLibrary,
    node_rows: Optional[list[int]] = None,
    max_skip: Optional[int] = None,
) -> ChainGraph:
    n = len(chain.buffers) + 2
    edges = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            length = merged_length(chain, i, j, lib)
            if length > lib.l_max_drive:
                continue
            if max_skip is not None and node_rows is not None:
                if node_rows[j] - node_rows[i] > max_skip:
                    continue
            edges.append((i, j, j - i - 1, length))
    return ChainGraph(num_nodes=n, edges=tuple(edges))


def solve_chain(
    chain: BufferChain,
    lib: CellLibrary,
    node_rows: Optional[list[int]] = None,
    max_skip: Optional[int] = None,
) -> tuple[list[int], int]:
    """Maximum-weight source-to-sink path for one chain.

    Returns the kept node indices (always starting at 0 and ending at m+1)
    and the number of buffers removed. Ties are broken toward removing the
    earliest buffers, i.e. the lexicographically smallest removed-index set.
    """
    graph = build_chain_graph(chain, lib, node_rows=node_rows, max_skip=max_skip)
    n = graph.num_nodes
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, w, _length in graph.edges:
        adj[j].append((i, w))
    # dp[j] = (removed count, removed-index tuple) of the best path reaching j;
    # smaller removed tuples win among equal counts.
    dp: list[Optional[tuple[int, tuple[int, ...]]]] = [None] * n
    dp[0] = (0, ())
    for j in range(1, n):
        best = None
        for i, w in adj[j]:
            if dp[i] is None:
                continue
            count = dp[i][0] + w
            removed = dp[i][1] + tuple(range(i + 1, j))
            cand = (count, removed)
            if best is None or count > best[0] or (count == best[0] and removed < best[1]):
                best = cand
        dp[j] = best
    if dp[n - 1] is None:
        # Consecutive hops are individually drivable in any validated circuit,
        # so the trivial keep-everything path always exists.
        raise MalformedChainError(
            [
                Diagnostic(
                    "MALFORMED_CHAIN",
                    f"{chain.source}->{chain.sink}",
                    "no feasible source-to-sink path; a routed hop exceeds l_max_drive",
                )
            ]
        )
    removed_count, removed = dp[n - 1]
    removed_set = set(removed)
    kept = [k for k in range(n) if k not in removed_set]
    return kept, removed_count


def remove_buffers(
    c: Circuit, lib: CellLibrary, max_skip: Optional[int] = 2
) -> tuple[Circuit, RemovalPlan]:
    """Rewrite the circuit with the globally optimal buffer removal applied.

    Merged connections get a fresh length; their propagation delay is
    length-derived unless every constituent hop carried an extracted delay,
    in which case the extracted delays are summed with one buffer-length
    worth of wire delay per eliminated buffer. Connections not touched by a
    removal are carried over unchanged. ``max_skip`` caps the row span a
    merged connection may cover (None disables the cap).
    """
    chains = extract_chains(c)
    if not chains:
        return c, RemovalPlan(chains=(), buffers_total=0, buffers_removed=0)

    dropped: set[str] = set()
    replaced: set[tuple[str, str]] = set()
    new_conns: list[Connection] = []
    results: list[ChainRemoval] = []
    for chain in chains:
        node_ids = (chain.source, *chain.buffers, chain.sink)
        node_rows = [c.gate(g).row for g in node_ids]
        kept, removed_count = solve_chain(chain, lib, node_rows=node_rows, max_skip=max_skip)
        merged: list[Connection] = []
        for a, b in zip(kept, kept[1:]):
            if b == a + 1:
                continue  # original hop survives untouched
            length = merged_length(chain, a, b, lib)
            hops = chain.connections[a:b]
            if all(k.prop is not None for k in hops):
                prop = sum(k.prop for k in hops) + (b - a - 1) * lib.l_buffer * lib.prop_per_um
            else:
                prop = None  # resolved lazily as length * prop_per_um
            merged.append(Connection(src=node_ids[a], dst=node_ids[b], length=length, prop=prop))
        removed_ids = tuple(
            node_ids[k] for k in range(1, len(node_ids) - 1) if k not in set(kept)
        )
        dropped.update(removed_ids)
        for a, b in zip(kept, kept[1:]):
            if b != a + 1:
                for hop in chain.connections[a:b]:
                    replaced.add((hop.src, hop.dst))
        new_conns.extend(merged)
        results.append(
            ChainRemoval(
                source=chain.source,
                sink=chain.sink,
                kept_nodes=tuple(kept),
                removed_gate_ids=removed_ids,
                merged_connections=tuple(merged),
            )
        )

    gates = tuple(g for g in c.gates if g.id not in dropped)
    survivors = tuple(
        k for k in c.connections if (k.src, k.dst) not in replaced
    )
    rewritten = Circuit(
        name=c.name,
        num_rows=c.num_rows,
        gates=gates,
        connections=survivors + tuple(new_conns),
    )
    plan = RemovalPlan(
        chains=tuple(results),
        buffers_total=sum(len(ch.buffers) for ch in chains),
        buffers_removed=sum(len(r.removed_gate_ids) for r in results),
    )
    return rewritten, plan
