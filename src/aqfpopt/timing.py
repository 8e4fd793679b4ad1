"""Setup/hold constraint generation and an independent STA oracle.

``build_constraints`` reformulates the raw per-connection inequalities into
linear constraints over the row increments, the period, the uniform slack
and the latency. ``sta_check`` evaluates the raw inequalities directly on a
concrete schedule and never touches the reformulation, which makes it an
independent correctness oracle: for every connection the STA setup slack
equals lhs - rhs of its setup row at S = 0, and the hold slack equals
rhs - lhs of its hold row. Both hold their output as columns, one per field.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple, Optional

from aqfpopt.model import (
    FIX_TOL,
    CellLibrary,
    Circuit,
    Diagnostic,
    OptimizationConfig,
    Schedule,
    Table,
    ValidationError,
)

#: Slack (ps) below which the STA counts a connection as failing.
STA_MARGIN = -FIX_TOL


class TimingConstraint(NamedTuple):
    """The setup and the hold inequality of one connection: one row of a
    :class:`ConstraintTable`.

    Both read off the same row. With ``D`` the sum of the row increments
    ``delta[first_row] .. delta[last_row - 1]``, the setup row is
    ``D - FS - S >= rhs`` and the hold row ``D - FH + S <= rhs``. The
    frequency-dependent terms FS (c2q of the source plus setup of the sink)
    and FH (c2q plus the hold window minus the sink's hold) are
    pseudo-variables over the cell pair; the solver substitutes their
    segment-affine form, and ``dlplace`` hold handling swaps the reset delay
    for the full period at that point.
    """

    src: str
    dst: str
    first_row: int  # row of the source gate
    last_row: int  # row of the sink gate
    src_cell: str
    dst_cell: str
    rhs: float  # propagation delay minus the base clock-arrival difference


class ConstraintTable(Table, record=TimingConstraint):
    pass


class TimingConstraintSet(NamedTuple):
    """The linear system over (delta_0.., T, S, L), one constraint row per connection."""

    constraints: ConstraintTable
    num_rows: int

    @property
    def num_deltas(self) -> int:
        return self.num_rows - 1


def _delays(c: Circuit, lib: CellLibrary):
    """Each connection's propagation delay in turn: its extracted delay, else its length's."""
    k = c.connections
    if None not in k.prop:  # every delay extracted, as gen writes them
        return k.prop
    prop_per_um = lib.prop_per_um
    return (length * prop_per_um if prop is None else prop for length, prop in zip(k.length, k.prop))


def build_constraints(
    c: Circuit, lib: CellLibrary, cfg: OptimizationConfig
) -> TimingConstraintSet:
    """Emit one constraint row per connection, carrying its setup and its hold row.

    A connection from row m to row n contributes the increments
    delta_m .. delta_{n-1} with coefficient +1; spans beyond ``cfg.max_skip``
    are rejected since the clock schedule was never characterized for them.
    The circuit must have passed ``validate_circuit``.
    """
    src, dst = c.endpoints
    g, k = c.gates, c.connections
    first, last = list(map(g.row.__getitem__, src)), list(map(g.row.__getitem__, dst))
    too_long = [i for i, span in enumerate(map(operator.sub, last, first)) if span > cfg.max_skip]
    if too_long:
        raise ValidationError([
            Diagnostic("UNSUPPORTED_SKIP", f"{k.src[i]}->{k.dst[i]}",
                       f"row span {last[i] - first[i]} exceeds the supported maximum {cfg.max_skip}")
            for i in too_long
        ])
    offsets = g.clock_offset
    rhs = [prop - (offsets[j] - offsets[i]) for prop, i, j in zip(_delays(c, lib), src, dst)]
    cells = g.cell.__getitem__
    table = ConstraintTable(k.src, k.dst, first, last, list(map(cells, src)), list(map(cells, dst)), rhs)
    return TimingConstraintSet(constraints=table, num_rows=c.num_rows)


class ConnectionSlack(NamedTuple):
    """The STA slacks of one connection: one row of a :class:`SlackTable`."""

    src: str
    dst: str
    setup_slack: float
    hold_slack: float


class SlackTable(Table, record=ConnectionSlack):
    pass


class SlackReport(NamedTuple):
    """The STA of a schedule: one row of ``entries`` per connection, in circuit order."""

    entries: SlackTable
    min_slack: Optional[float]

    def failing(self) -> list[int]:
        """The index of every connection whose slacks are not both finite and at least ``STA_MARGIN``."""
        # A NaN fails both comparisons, +-Infinity one of them.
        return [i for i, (setup, hold) in enumerate(zip(self.entries.setup_slack, self.entries.hold_slack))
                if not (STA_MARGIN <= setup < math.inf and STA_MARGIN <= hold < math.inf)]


def sta_check(
    c: Circuit, lib: CellLibrary, sched: Schedule, hold_mode: str = OptimizationConfig._field_defaults["hold_mode"]
) -> SlackReport:
    """Static timing check of a concrete schedule against the raw inequalities.

    Clock arrival at a gate is its base offset plus every row increment
    before its row. Each cell's timing functions are evaluated once at the
    period, and each gate's launch edge (clock plus c2q) and its setup and
    hold capture edges are resolved once, before the clock column is
    dropped; the connections then only add their propagation delay. Each
    connection's arrival is summed once for its setup slack and again for its
    hold slack, in the same float operations, rather than kept as a column
    beside both slack columns. The computation reads the circuit, the
    library and the schedule alone and deliberately bypasses the
    reformulated constraint system.
    """
    k = c.connections
    if not len(k):
        return SlackReport(entries=SlackTable([], [], [], []), min_slack=None)
    period = sched.period
    prefix = [0.0] * (c.num_rows + 1)
    for r, d in enumerate(sched.row_deltas):
        prefix[r + 1] = prefix[r] + d
    c2q, setup, hold, window = {}, {}, {}, {}  # each cell's value at the period
    for name in dict.fromkeys(c.gates.cell):
        fns = lib.timing(name)
        c2q[name], setup[name], hold[name] = fns.c2q(period), fns.setup(period), fns.hold(period)
        window[name] = period if hold_mode == "dlplace" else fns.rd(period)
    g = c.gates
    clock = list(map(operator.add, g.clock_offset, map(prefix.__getitem__, g.row)))
    # ``op(clock, value of the cell)`` of each gate, looked up by gate index.
    launch, setup_edge, hold_edge = (list(map(op, clock, map(value.__getitem__, g.cell))).__getitem__
                                     for op, value in ((operator.add, c2q), (operator.sub, setup), (operator.add, hold)))
    del clock
    src, dst = c.endpoints

    def arrival():
        return map(operator.add, map(launch, src), _delays(c, lib))

    setup_slack = list(map(operator.sub, map(setup_edge, dst), arrival()))
    del setup_edge
    windows = map(window.__getitem__, map(g.cell.__getitem__, src))
    hold_slack = list(map(operator.sub, map(operator.add, arrival(), windows), map(hold_edge, dst)))
    # min(setup, hold) is hold only when hold < setup, and min over the
    # connections keeps the first of equals, NaN included.
    min_slack = min(map(min, setup_slack, hold_slack))
    return SlackReport(SlackTable(k.src, k.dst, setup_slack, hold_slack), min_slack)
