"""Globally optimal removal of path-balancing buffers.

Each maximal single-fanin/single-fanout run of buffer cells forms a chain,
kept as its routed hops. Removing the buffers strictly between two chain
nodes merges the hops between them into one connection, whose length is
the hops' sum plus one intrinsic buffer length per eliminated buffer. A
merge is legal when that length stays within the library drive limit and
the merged connection skips no more rows than the scheduler is asked to
support; an original hop is always legal. Per chain, a walk jumps from
each kept node to the furthest node one merged connection may reach. Both
limits only get easier as a span gets shorter, so no choice of kept nodes
reaches further than the walk's after the same number of jumps: the walk
keeps the fewest nodes, and among those optima it removes the earliest
buffers. Chains are independent, so per-chain optima add up to the global
optimum.
"""

from __future__ import annotations

from typing import NamedTuple

from aqfpopt.model import (
    BUFFER_CELL,
    CellLibrary,
    Circuit,
    Connection,
    Diagnostic,
    OptimizationConfig,
    ValidationError,
    left_sum,
    log,
)


class ChainRemoval(NamedTuple):
    source: str
    sink: str
    kept_nodes: tuple[int, ...]
    removed_gate_ids: tuple[str, ...]


class RemovalPlan(NamedTuple):
    chains: tuple[ChainRemoval, ...]
    buffers_total: int
    buffers_removed: int


def extract_chains(c: Circuit) -> list[tuple[Connection, ...]]:
    """Collect every maximal buffer run bounded by non-chain gates.

    A chain is its hops: the source is ``hops[0].src``, the buffers are the
    ``dst`` of every hop but the last and the sink is ``hops[-1].dst``.
    Chains come in the gate order of their first buffer. A buffer with more
    than one fanout cannot sit inside a chain; it is skipped with a logged
    diagnostic. A buffer without exactly one fanin is malformed and raises,
    since no consistent chain can contain it.
    """
    fanin: dict[str, list[int]] = {gid: [] for gid, cell in zip(c.gates.id, c.gates.cell) if cell == BUFFER_CELL}
    fanout: dict[str, list[int]] = {gid: [] for gid in fanin}
    for i, (src, dst) in enumerate(zip(c.connections.src, c.connections.dst)):
        ins = fanin.get(dst)
        if ins is not None:
            ins.append(i)
        outs = fanout.get(src)
        if outs is not None:
            outs.append(i)

    chainable: set[str] = set()
    for gid, ins in fanin.items():
        if len(ins) != 1:
            raise ValidationError(
                [Diagnostic("MALFORMED_CHAIN", gid, f"buffer has {len(ins)} fanins, expected exactly 1")]
            )
        if len(fanout[gid]) != 1:
            log.warning("buffer %s has fanout %d, excluded from chains", gid, len(fanout[gid]))
            continue
        chainable.add(gid)

    chains: list[tuple[Connection, ...]] = []
    hop = c.connections.at
    for gid in fanin:
        if gid not in chainable or c.connections.src[fanin[gid][0]] in chainable:
            continue  # not chainable, or the interior of a run handled from its head
        hops = [hop(fanin[gid][0])]
        while hops[-1].dst in chainable:
            hops.append(hop(fanout[hops[-1].dst][0]))
        chains.append(tuple(hops))
    return chains


def merged_length(span: tuple[Connection, ...], lib: CellLibrary) -> float:
    """Length of the connection that replaces the hops of ``span``: their sum plus a buffer length per buffer."""
    return left_sum(h.length for h in span) + (len(span) - 1) * lib.l_buffer


def solve_chain(
    hops: tuple[Connection, ...], rows: list[int], lib: CellLibrary, max_skip: int
) -> list[int]:
    """Kept node indices of the optimal removal on one chain.

    Node k is ``hops[0].src`` for k = 0 and ``hops[k - 1].dst`` otherwise;
    ``rows[k]`` is its row. ``max_skip`` caps the row span of a merged
    connection. The result starts at 0 and ends at ``len(hops)``.
    """
    last = len(hops)
    kept = [0]
    i = 0
    while i < last:
        j = i + 1  # the original hop is always allowed
        while j < last and merged_length(hops[i:j + 1], lib) <= lib.l_max_drive \
                and rows[j + 1] - rows[i] <= max_skip:
            j += 1
        kept.append(j)
        i = j
    return kept


def remove_buffers(
    c: Circuit, lib: CellLibrary, max_skip: int = OptimizationConfig._field_defaults["max_skip"]
) -> tuple[Circuit, RemovalPlan]:
    """Rewrite the circuit with the globally optimal buffer removal applied.

    The circuit must have passed ``validate_circuit``, which rejects hops
    longer than the drive limit. Merged connections get a fresh length;
    their propagation delay is length-derived unless every constituent hop
    carried an extracted delay, in which case the extracted delays are
    summed with one buffer-length worth of wire delay per eliminated buffer.
    Connections that touch no removed buffer are carried over unchanged, and
    the merged connections follow them in chain order. ``max_skip`` caps the
    row span a merged connection may cover.
    """
    chains = extract_chains(c)
    if not chains:
        return c, RemovalPlan(chains=(), buffers_total=0, buffers_removed=0)

    index, rows = c.gate_index, c.gates.row
    removed: set[str] = set()
    merged: list[Connection] = []
    results: list[ChainRemoval] = []
    for hops in chains:
        nodes = (hops[0].src, *(h.dst for h in hops))
        kept = solve_chain(hops, [rows[index[g]] for g in nodes], lib, max_skip)
        removed_ids: list[str] = []
        for a, b in zip(kept, kept[1:]):
            if b == a + 1:
                continue  # original hop survives untouched
            span = hops[a:b]
            length = merged_length(span, lib)
            if all(h.prop is not None for h in span):
                prop = left_sum(h.prop for h in span) + (b - a - 1) * lib.l_buffer * lib.prop_per_um
            else:
                prop = None  # resolved lazily as length * prop_per_um
            merged.append(Connection(src=nodes[a], dst=nodes[b], length=length, prop=prop))
            removed_ids.extend(nodes[a + 1:b])
        removed.update(removed_ids)
        results.append(ChainRemoval(nodes[0], nodes[-1], tuple(kept), tuple(removed_ids)))

    k = c.connections
    rewritten = Circuit(
        name=c.name,
        num_rows=c.num_rows,
        gates=c.gates.take([i for i, gid in enumerate(c.gates.id) if gid not in removed]),
        connections=k.take([i for i, (src, dst) in enumerate(zip(k.src, k.dst))
                            if src not in removed and dst not in removed], merged),
    )
    plan = RemovalPlan(
        chains=tuple(results),
        buffers_total=sum(len(hops) - 1 for hops in chains),
        buffers_removed=len(removed),
    )
    return rewritten, plan
