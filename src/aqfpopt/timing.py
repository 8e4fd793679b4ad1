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
    float_column,
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
    """Each connection's propagation delay in turn, its extracted delay else its length times
    ``prop_per_um``, for the one pass that ``build_constraints`` and ``sta_check`` make over the connections."""
    k, prop_per_um = c.connections, lib.prop_per_um
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
    rhs = float_column(prop - (offsets[j] - offsets[i]) for prop, i, j in zip(_delays(c, lib), src, dst))
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
    before its row, a float column, and each cell's timing functions are
    evaluated once at the period. One loop then takes each connection's
    source i, sink j and propagation delay, computes the data arrival
    ``clock[i] + c2q(i) + delay`` once, and appends the setup slack
    ``(clock[j] - setup(j)) - arrival`` and the hold slack ``(arrival +
    window(i)) - (clock[j] + hold(j))`` to their float columns, where the
    window is the source's reset delay, or the full period under
    ``dlplace``. The computation reads the circuit, the library and the
    schedule alone and deliberately bypasses the reformulated constraint
    system.
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
    clock = float_column(map(operator.add, g.clock_offset, map(prefix.__getitem__, g.row)))
    cell = g.cell
    src, dst = c.endpoints
    setup_slack, hold_slack = float_column(), float_column()
    add_setup, add_hold = setup_slack.append, hold_slack.append  # looked up once: an array's is no fast path
    for i, j, delay in zip(src, dst, _delays(c, lib)):
        arrival = clock[i] + c2q[cell[i]] + delay
        add_setup((clock[j] - setup[cell[j]]) - arrival)
        add_hold((arrival + window[cell[i]]) - (clock[j] + hold[cell[j]]))
    # min(setup, hold) is hold only when hold < setup, and min over the
    # connections keeps the first of equals, NaN included.
    min_slack = min(map(min, setup_slack, hold_slack))
    return SlackReport(SlackTable(k.src, k.dst, setup_slack, hold_slack), min_slack)
