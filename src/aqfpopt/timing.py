"""Setup/hold constraint generation and an independent STA oracle.

``build_constraints`` reformulates the raw per-connection inequalities into
linear constraints over the row increments, the period, the uniform slack
and the latency. ``sta_check`` evaluates the raw inequalities directly on a
concrete schedule and never touches the reformulation, which makes it an
independent correctness oracle: for every connection the STA setup slack
equals the setup constraint's lhs - rhs at S = 0, and the hold slack equals
rhs - lhs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from aqfpopt.model import (
    CellLibrary,
    Circuit,
    Connection,
    Diagnostic,
    OptimizationConfig,
    Schedule,
    ValidationError,
)

#: Slack (ps) below which the STA counts a connection as failing.
STA_MARGIN = -1e-6


class UnsupportedSkipError(ValidationError):
    pass


@dataclass(frozen=True)
class TimingConstraint:
    """One reformulated inequality for one connection.

    Setup rows read ``sum(delta[r] for r in delta_rows) - FS - S >= rhs`` and
    hold rows ``sum(...) - FH + S <= rhs``. The frequency-dependent terms FS
    (c2q of the source plus setup of the sink) and FH (c2q plus the hold
    window minus the sink's hold) are pseudo-variables over the cell pair;
    the solver substitutes their segment-affine form, and ``dlplace`` hold
    handling swaps the reset delay for the full period at that point.
    """

    kind: str  # "setup" or "hold"
    src: str
    dst: str
    src_cell: str
    dst_cell: str
    delta_rows: tuple[int, ...]  # indices r with coefficient +1
    rhs: float  # prop_ij - delta_clk_ij

    @property
    def key(self) -> str:
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True)
class TimingConstraintSet:
    """The linear system over (delta_0.., T, S, L) generated from a circuit."""

    constraints: tuple[TimingConstraint, ...]
    num_rows: int

    @property
    def num_deltas(self) -> int:
        return self.num_rows - 1


def delta_clk(c: Circuit, conn: Connection) -> float:
    """Base clock-arrival difference between the endpoints of a connection."""
    return c.gate(conn.dst).clock_offset - c.gate(conn.src).clock_offset


def build_constraints(
    c: Circuit, lib: CellLibrary, cfg: OptimizationConfig
) -> TimingConstraintSet:
    """Emit one setup and one hold constraint per connection.

    A connection from row m to row n contributes the increments
    delta_m .. delta_{n-1} with coefficient +1; spans beyond ``cfg.max_skip``
    are rejected since the clock schedule was never characterized for them.
    """
    constraints: list[TimingConstraint] = []
    errs: list[Diagnostic] = []
    for conn in c.connections:
        src = c.gate(conn.src)
        dst = c.gate(conn.dst)
        span = dst.row - src.row
        if cfg.max_skip is not None and span > cfg.max_skip:
            errs.append(
                Diagnostic(
                    "UNSUPPORTED_SKIP",
                    conn.key,
                    f"row span {span} exceeds the supported maximum {cfg.max_skip}",
                )
            )
            continue
        rows = tuple(range(src.row, dst.row))
        rhs = c.propagation(conn, lib) - delta_clk(c, conn)
        common = dict(
            src=conn.src,
            dst=conn.dst,
            src_cell=src.cell,
            dst_cell=dst.cell,
            delta_rows=rows,
            rhs=rhs,
        )
        constraints.append(TimingConstraint(kind="setup", **common))
        constraints.append(TimingConstraint(kind="hold", **common))
    if errs:
        raise UnsupportedSkipError(errs)
    return TimingConstraintSet(constraints=tuple(constraints), num_rows=c.num_rows)


@dataclass(frozen=True)
class ConnectionSlack:
    src: str
    dst: str
    setup_slack: float
    hold_slack: float

    def passing(self) -> bool:
        """Both slacks are finite and at least ``STA_MARGIN``."""
        s, h = self.setup_slack, self.hold_slack
        return math.isfinite(s) and math.isfinite(h) and min(s, h) >= STA_MARGIN


@dataclass(frozen=True)
class SlackReport:
    entries: tuple[ConnectionSlack, ...]
    min_slack: Optional[float]

    def passing(self) -> bool:
        return all(e.passing() for e in self.entries)


def sta_check(
    c: Circuit, lib: CellLibrary, sched: Schedule, hold_mode: str = "reset-delay"
) -> SlackReport:
    """Static timing check of a concrete schedule against the raw inequalities.

    Clock arrival at a gate is its base offset plus every row increment
    before its row. The computation deliberately bypasses the reformulated
    constraint system.
    """
    period = sched.period
    prefix = [0.0] * (c.num_rows + 1)
    for r, d in enumerate(sched.row_deltas):
        prefix[r + 1] = prefix[r] + d
    clk = {g.id: g.clock_offset + prefix[g.row] for g in c.gates}

    entries = []
    min_slack = None
    for conn in c.connections:
        src = c.gate(conn.src)
        dst = c.gate(conn.dst)
        prop = c.propagation(conn, lib)
        c2q = lib.timing(src.cell).c2q(period)
        setup = lib.timing(dst.cell).setup(period)
        hold = lib.timing(dst.cell).hold(period)
        window = period if hold_mode == "dlplace" else lib.timing(src.cell).rd(period)
        setup_slack = (clk[dst.id] - setup) - (clk[src.id] + c2q + prop)
        hold_slack = (clk[src.id] + c2q + prop + window) - (clk[dst.id] + hold)
        entries.append(
            ConnectionSlack(src=conn.src, dst=conn.dst, setup_slack=setup_slack, hold_slack=hold_slack)
        )
        local = min(setup_slack, hold_slack)
        if min_slack is None or local < min_slack:
            min_slack = local
    return SlackReport(entries=tuple(entries), min_slack=min_slack)
