"""Setup/hold constraint generation and an independent STA oracle.

``build_constraints`` reformulates the raw per-connection inequalities into
linear constraints over the row increments, the period, the uniform slack
and the latency. ``sta_check`` evaluates the raw inequalities directly on a
concrete schedule and never touches the reformulation, which makes it an
independent correctness oracle: for every connection the STA setup slack
equals lhs - rhs of the setup row of its record at S = 0, and the hold
slack equals rhs - lhs of the hold row.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from aqfpopt.model import (
    CellLibrary,
    Circuit,
    Diagnostic,
    OptimizationConfig,
    Schedule,
    ValidationError,
)

#: Slack (ps) below which the STA counts a connection as failing.
STA_MARGIN = -1e-6


class TimingConstraint(NamedTuple):
    """The setup and the hold inequality of one connection.

    Both read off the same record. With ``D`` the sum of the row increments
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

    @property
    def key(self) -> str:
        return f"{self.src}->{self.dst}"


class TimingConstraintSet(NamedTuple):
    """The linear system over (delta_0.., T, S, L), one record per connection."""

    constraints: tuple[TimingConstraint, ...]
    num_rows: int

    @property
    def num_deltas(self) -> int:
        return self.num_rows - 1


def build_constraints(
    c: Circuit, lib: CellLibrary, cfg: OptimizationConfig
) -> TimingConstraintSet:
    """Emit one record per connection, carrying its setup and its hold row.

    A connection from row m to row n contributes the increments
    delta_m .. delta_{n-1} with coefficient +1; spans beyond ``cfg.max_skip``
    are rejected since the clock schedule was never characterized for them.
    The circuit must have passed ``validate_circuit``.
    """
    gates = c.gates_by_id
    prop_per_um = lib.prop_per_um
    max_skip = cfg.max_skip
    new = tuple.__new__  # makes a record without a call to its Python-level __new__
    constraints: list[TimingConstraint] = []
    add = constraints.append
    errs: list[Diagnostic] = []
    for src, dst, length, prop in c.connections:
        _, src_cell, first, src_offset = gates[src]
        _, dst_cell, last, dst_offset = gates[dst]
        if last - first > max_skip:
            errs.append(
                Diagnostic(
                    "UNSUPPORTED_SKIP",
                    f"{src}->{dst}",
                    f"row span {last - first} exceeds the supported maximum {cfg.max_skip}",
                )
            )
            continue
        if prop is None:
            prop = length * prop_per_um
        rhs = prop - (dst_offset - src_offset)
        add(new(TimingConstraint, (src, dst, first, last, src_cell, dst_cell, rhs)))
    if errs:
        raise ValidationError(errs)
    return TimingConstraintSet(constraints=tuple(constraints), num_rows=c.num_rows)


class ConnectionSlack(NamedTuple):
    src: str
    dst: str
    setup_slack: float
    hold_slack: float

    def passing(self) -> bool:
        """Both slacks are finite and at least ``STA_MARGIN``."""
        # A NaN fails both comparisons, +-Infinity one of them.
        return STA_MARGIN <= self.setup_slack < math.inf and STA_MARGIN <= self.hold_slack < math.inf


class SlackReport(NamedTuple):
    entries: tuple[ConnectionSlack, ...]
    min_slack: Optional[float]

    def passing(self) -> bool:
        return all(e.passing() for e in self.entries)


def sta_check(
    c: Circuit, lib: CellLibrary, sched: Schedule, hold_mode: str = OptimizationConfig._field_defaults["hold_mode"]
) -> SlackReport:
    """Static timing check of a concrete schedule against the raw inequalities.

    Clock arrival at a gate is its base offset plus every row increment
    before its row. Each cell's timing functions are evaluated once at the
    period and each gate's arrival is resolved once; the connections then
    only add their propagation delay. The computation reads the circuit,
    the library and the schedule alone and deliberately bypasses the
    reformulated constraint system.
    """
    if not c.connections:
        return SlackReport(entries=(), min_slack=None)
    period = sched.period
    prefix = [0.0] * (c.num_rows + 1)
    for r, d in enumerate(sched.row_deltas):
        prefix[r + 1] = prefix[r] + d
    at_period = {}
    for name in dict.fromkeys(g.cell for g in c.gates):
        fns = lib.timing(name)
        window = period if hold_mode == "dlplace" else fns.rd(period)
        at_period[name] = (fns.c2q(period), fns.setup(period), fns.hold(period), window)
    clock = {gid: offset + prefix[row] for gid, _, row, offset in c.gates}
    gates = c.gates_by_id
    prop_per_um = lib.prop_per_um
    new = tuple.__new__
    entries = []
    add = entries.append
    min_slack = None
    for src, dst, length, prop in c.connections:
        c2q, _, _, window = at_period[gates[src].cell]
        _, setup, hold, _ = at_period[gates[dst].cell]
        if prop is None:
            prop = length * prop_per_um
        arrival = clock[src] + c2q + prop
        clk = clock[dst]
        setup_slack = (clk - setup) - arrival
        hold_slack = arrival + window - (clk + hold)
        add(new(ConnectionSlack, (src, dst, setup_slack, hold_slack)))
        local = hold_slack if hold_slack < setup_slack else setup_slack
        if min_slack is None or local < min_slack:
            min_slack = local
    return SlackReport(entries=tuple(entries), min_slack=min_slack)
