"""Synthetic benchmark circuits: the ``gen`` subcommand and ``generate_circuit``.

``main`` imports this module only for ``gen``, so the other commands never
compile it.
"""

from __future__ import annotations

import random
import sys
from typing import Optional

from aqfpopt.ingest import parse_library, read_input, reference_library, serialize_circuit, write_output
from aqfpopt.model import (
    BUFFER_CELL,
    CellLibrary,
    Circuit,
    ConnectionTable,
    Diagnostic,
    GateTable,
    NULL_FLOAT,
    ValidationError,
)

_GATE_CELLS = ("majority3", "splitter2", "splitter3", "splitter4")


def generate_circuit(
    rows: int,
    width: int,
    seed: int,
    chain_prob: float = 0.0,
    skip_prob: float = 0.0,
    adversarial: bool = False,
    lib: Optional[CellLibrary] = None,
) -> Circuit:
    """Deterministic random pipeline: ``width`` gates per row, feedforward
    connections to the next row, optional buffer chains and phase-skipping
    connections.

    Wire lengths are drawn across the full drivable range, but extracted
    propagation delays are emitted with a bounded per-row spread so the
    result is schedulable by construction; ``adversarial`` drops the
    explicit delays and lets raw wire lengths produce infeasible instances.
    Sizes below 1 and probabilities outside [0, 1], NaN included, raise a
    :class:`ValidationError` naming each such argument. Gates and
    connections go straight into the circuit's columns.
    """
    errs = [
        Diagnostic("INVALID_CONFIG", name, f"{name} must be >= 1")
        for name, count in (("rows", rows), ("width", width))
        if count < 1
    ]
    errs += [
        Diagnostic("INVALID_CONFIG", name, f"{name} must be in [0, 1]")
        for name, prob in (("chain_prob", chain_prob), ("skip_prob", skip_prob))
        if not 0.0 <= prob <= 1.0
    ]
    if errs:
        raise ValidationError(errs)
    lib = lib if lib is not None else reference_library()
    rng = random.Random(seed)
    pool = [cell for cell in _GATE_CELLS if cell in lib.cells] or sorted(lib.cells)

    prop_base, prop_spread = 25.0, 35.0

    def draw_prop() -> float:
        """An extracted delay, or NULL_FLOAT, a length-derived one, under ``adversarial``."""
        if adversarial:
            return NULL_FLOAT
        return prop_base + rng.uniform(0.0, prop_spread)

    gates = GateTable([], [], [], [])

    def add_gate(gid: str, cell: str, row: int, clock_offset: float) -> None:
        gates.id.append(gid)
        gates.cell.append(cell)
        gates.row.append(row)
        gates.clock_offset.append(clock_offset)

    grid: list[list[str]] = []
    row_base_of: list[float] = []
    row_tap: list[float] = []
    base = 0.0
    for r in range(rows):
        if r:
            base += rng.uniform(0.5, 2.0)
        row_base_of.append(base)
        tap = 0.0
        ids = []
        for w in range(width):
            tap += rng.uniform(0.0, 0.1)
            gid = f"g{r}_{w}"
            add_gate(gid, rng.choice(pool), r, base + tap)
            ids.append(gid)
        grid.append(ids)
        row_tap.append(tap)

    connections = ConnectionTable([], [], [], [])
    seen_pairs: set[tuple[str, str]] = set()

    def connect(src: str, dst: str, length: float, prop: float) -> None:
        if (src, dst) in seen_pairs:
            return
        seen_pairs.add((src, dst))
        connections.src.append(src)
        connections.dst.append(dst)
        connections.length.append(length)
        connections.prop.append(prop)

    for r in range(rows - 1):
        for dst in grid[r + 1]:
            src = rng.choice(grid[r])
            connect(src, dst, rng.uniform(0.0, lib.l_max_drive), draw_prop())
            if width > 1 and rng.random() < 0.3:
                connect(rng.choice(grid[r]), dst, rng.uniform(0.0, lib.l_max_drive), draw_prop())

    chain_count = 0
    if BUFFER_CELL in lib.cells:
        for r in range(rows):
            if rng.random() >= chain_prob:
                continue
            k = rng.randint(1, 4)
            if r + k + 1 > rows - 1:
                continue
            src = rng.choice(grid[r])
            dst = rng.choice(grid[r + k + 1])
            nodes = [src]
            for j in range(1, k + 1):
                row_tap[r + j] += rng.uniform(0.0, 0.1)
                gid = f"c{chain_count}_{j}"
                add_gate(gid, BUFFER_CELL, r + j, row_base_of[r + j] + row_tap[r + j])
                nodes.append(gid)
            nodes.append(dst)
            for a, b in zip(nodes, nodes[1:]):
                connect(a, b, rng.uniform(0.1, 0.45) * lib.l_max_drive, draw_prop())
            chain_count += 1

    for r in range(rows - 2):
        if rng.random() < skip_prob:
            src = rng.choice(grid[r])
            dst = rng.choice(grid[r + 2])
            prop = NULL_FLOAT if adversarial else draw_prop() + draw_prop()
            connect(src, dst, rng.uniform(0.0, lib.l_max_drive), prop)

    return Circuit(name=f"gen-r{rows}-w{width}-s{seed}", num_rows=rows, gates=gates, connections=connections)


class _WholeWrites:
    """A text stream that writes to ``sys.stdout``'s byte stream, each text
    in full. Under -u the byte stream is the raw file: a write cut short by a
    closed pipe takes part of the bytes, and the text layer would drop the
    rest."""

    def write(self, text: str) -> None:
        out, data = sys.stdout.buffer, memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[out.write(data):]


def cmd_gen(args) -> None:
    circuit = generate_circuit(
        rows=args.rows,
        width=args.width,
        seed=args.seed,
        chain_prob=args.chain_prob,
        skip_prob=args.skip_prob,
        adversarial=args.adversarial,
        lib=read_input(args.lib, parse_library) if args.lib else None,
    )
    if args.out and args.out != "-":
        write_output(args.out, lambda fh: serialize_circuit(circuit, fh))
    elif not hasattr(sys.stdout, "buffer"):  # a text-only stream, such as io.StringIO
        serialize_circuit(circuit, sys.stdout)
    else:
        sys.stdout.flush()
        serialize_circuit(circuit, _WholeWrites())
