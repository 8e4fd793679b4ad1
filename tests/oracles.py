"""Independent reference implementations used to derive expected values.

Nothing here may share logic with the code paths under test: chain removal
is checked by exhaustive subset enumeration, schedules by grid search over
the period with a Bellman-Ford difference-constraint solve per grid point,
and segment schedules by the full per-segment LP solved with SciPy's HiGHS.
Circuit files are checked against ``json.dumps(doc, indent=2)``.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from aqfpopt.model import BufferChain, CellLibrary, Circuit, Connection, Gate, OptimizationConfig


def chain_brute_force(
    chain: BufferChain,
    lib: CellLibrary,
    node_rows: Optional[list[int]] = None,
    max_skip: Optional[int] = None,
) -> tuple[int, tuple[int, ...]]:
    """Best removal over all 2^m subsets; ties prefer removing earlier buffers.

    Every mask is checked at once: bit j of a mask removes buffer j + 1, and
    each kept node is tested against the kept node before it. Among the
    feasible masks with the most removals, the lexicographically smallest
    removed tuple is the mask that is largest when buffer 1 weighs most.
    """
    m = len(chain.buffers)
    masks = np.arange(2**m)
    removed = (masks[:, None] >> np.arange(m)) & 1
    kept = np.ones((masks.size, m + 2), dtype=bool)
    kept[:, 1:m + 1] = removed == 0
    nodes = np.arange(m + 2)
    last_kept = np.maximum.accumulate(np.where(kept, nodes, 0), axis=1)
    prev = np.concatenate([np.zeros((masks.size, 1), dtype=int), last_kept[:, :-1]], axis=1)

    hop_ok = np.zeros((m + 2, m + 2), dtype=bool)  # hop_ok[a, b]: a may drive b directly
    for a in range(m + 2):
        for b in range(a + 1, m + 2):
            length = sum(chain.segment_lengths[a:b]) + (b - a - 1) * lib.l_buffer
            ok = length <= lib.l_max_drive
            if max_skip is not None and node_rows is not None:
                ok = ok and node_rows[b] - node_rows[a] <= max_skip
            hop_ok[a, b] = ok
    feasible = (hop_ok[prev[:, 1:], nodes[1:]] | ~kept[:, 1:]).all(axis=1)
    if not feasible.any():
        return (-1, ())

    count = removed.sum(axis=1)
    top = feasible & (count == count[feasible].max())
    rank = removed @ (2 ** np.arange(m - 1, -1, -1))
    best = int(np.flatnonzero(top)[np.argmax(rank[top])])
    picked = tuple(j + 1 for j in range(m) if best >> j & 1)
    return (len(picked), picked)


def _pwl_grid(fn, grid: np.ndarray) -> np.ndarray:
    bps = np.asarray(fn.breakpoints)
    idx = np.clip(np.searchsorted(bps, grid, side="left") - 1, 0, len(fn.segments) - 1)
    slopes = np.asarray([s for s, _ in fn.segments])[idx]
    intercepts = np.asarray([i for _, i in fn.segments])[idx]
    return slopes * grid + intercepts


def _raw_rhs(conn: Connection, src: Gate, dst: Gate, lib: CellLibrary) -> float:
    """Propagation delay minus base clock difference, from the raw fields.

    A connection without an extracted delay takes its wire length times the
    library's per-um delay.
    """
    prop = conn.length * lib.prop_per_um if conn.prop is None else conn.prop
    return prop - (dst.clock_offset - src.clock_offset)


def schedule_feasibility_grid(
    circuit: Circuit,
    lib: CellLibrary,
    grid: np.ndarray,
    slack: float,
    delta_max: float = 10000.0,
    hold_mode: str = "reset-delay",
):
    """Feasibility and minimum latency per grid period, via difference constraints.

    Prefix variables P_k = sum of the first k row increments turn every
    setup/hold bound into P_n - P_m >= lo (or <= hi). The componentwise
    minimal solution with P_0 = 0 is the longest-path distance vector, so
    minimum latency is the distance of the last node; a positive cycle means
    the period is infeasible.
    """
    grid = np.asarray(grid, dtype=float)
    nt = grid.size
    rows = circuit.num_rows
    edges = []  # (i, j, weight array)
    zero = np.zeros(nt)
    for r in range(rows - 1):
        edges.append((r, r + 1, zero))
        edges.append((r + 1, r, np.full(nt, -delta_max)))
    gates = {g.id: g for g in circuit.gates}
    for conn in circuit.connections:
        src, dst = gates[conn.src], gates[conn.dst]
        x = _raw_rhs(conn, src, dst, lib)
        fs = _pwl_grid(lib.timing(src.cell).c2q, grid) + _pwl_grid(lib.timing(dst.cell).setup, grid)
        window = grid if hold_mode == "dlplace" else _pwl_grid(lib.timing(src.cell).rd, grid)
        fh = _pwl_grid(lib.timing(src.cell).c2q, grid) + window - _pwl_grid(
            lib.timing(dst.cell).hold, grid
        )
        edges.append((src.row, dst.row, fs + slack + x))
        edges.append((dst.row, src.row, -(fh - slack + x)))

    dist = np.full((rows, nt), -np.inf)
    dist[0] = 0.0
    for _ in range(rows + 1):
        changed = False
        for i, j, w in edges:
            cand = dist[i] + w
            upd = cand > dist[j] + 1e-12
            if upd.any():
                dist[j] = np.where(upd, cand, dist[j])
                changed = True
        if not changed:
            break
    unstable = np.zeros(nt, dtype=bool)
    for i, j, w in edges:
        unstable |= dist[i] + w > dist[j] + 1e-9
    feasible = ~unstable & np.isfinite(dist[rows - 1])
    return feasible, dist[rows - 1]


def grid_min_period(
    circuit: Circuit,
    lib: CellLibrary,
    t_lo: float,
    t_hi: float,
    slack: float,
    step: float = 0.05,
    hold_mode: str = "reset-delay",
):
    """Smallest feasible grid period and its minimum latency (None if none)."""
    grid = np.arange(t_lo, t_hi + step / 2, step)
    feasible, lat = schedule_feasibility_grid(circuit, lib, grid, slack, hold_mode=hold_mode)
    idx = np.nonzero(feasible)[0]
    if idx.size == 0:
        return None, None
    k = int(idx[0])
    return float(grid[k]), float(lat[k])


def min_latency_at(
    circuit: Circuit,
    lib: CellLibrary,
    period: float,
    slack: float,
    hold_mode: str = "reset-delay",
) -> Optional[float]:
    feasible, lat = schedule_feasibility_grid(
        circuit, lib, np.array([period]), slack, hold_mode=hold_mode
    )
    return float(lat[0]) if feasible[0] else None


def segment_lp_oracle(
    circuit: Circuit,
    lib: CellLibrary,
    cfg: OptimizationConfig,
    k: int,
    t_lo: float,
    t_hi: float,
    fix_tol: float = 1e-6,
) -> tuple[str, tuple[float, ...]]:
    """Status and stage values of segment k's full LP, solved stage by stage.

    The variables are the row increments delta_0.., T, S and L. Each
    connection gives its own setup and hold row, written from the circuit
    and the library's slope and intercept on segment k:

        sum(delta) - (c2q + setup)(T) - S >= prop - clock difference
        sum(delta) - (c2q + window - hold)(T) + S <= prop - clock difference

    where the hold window is the source's reset delay, or T itself in
    ``dlplace`` mode. Weighted mode minimizes ``tau*T - sigma*S + lam*L``
    first and then period, latency and slack; lexicographic mode follows
    ``cfg.priority``. Each stage's optimum is held within ``fix_tol`` by a
    row before the next stage.
    """
    nd = circuit.num_rows - 1
    it, is_, il = nd, nd + 1, nd + 2
    a_ub, b_ub = [], []
    gates = {g.id: g for g in circuit.gates}
    for conn in circuit.connections:
        src, dst = gates[conn.src], gates[conn.dst]
        x = _raw_rhs(conn, src, dst, lib)
        ts, td = lib.timing(src.cell), lib.timing(dst.cell)
        (ca, cb), (ua, ub), (ha, hb) = ts.c2q.segments[k], td.setup.segments[k], td.hold.segments[k]
        wa, wb = (1.0, 0.0) if cfg.hold_mode == "dlplace" else ts.rd.segments[k]
        setup = np.zeros(nd + 3)
        setup[src.row:dst.row] = -1.0
        setup[it], setup[is_] = ca + ua, 1.0
        a_ub.append(setup)
        b_ub.append(-(cb + ub + x))
        hold = np.zeros(nd + 3)
        hold[src.row:dst.row] = 1.0
        hold[it], hold[is_] = -(ca + wa - ha), 1.0
        a_ub.append(hold)
        b_ub.append(cb + wb - hb + x)
    a_eq = np.zeros((1, nd + 3))
    a_eq[0, :nd] = -1.0
    a_eq[0, il] = 1.0
    bounds = [(0.0, cfg.delta_max)] * nd + [(t_lo, t_hi), (cfg.s_min, cfg.s_max), (0.0, None)]

    def vector(coefs):
        c = np.zeros(nd + 3)
        for i, v in coefs:
            c[i] = v
        return c

    single = {"period": [(it, 1.0)], "latency": [(il, 1.0)], "slack": [(is_, -1.0)]}
    if cfg.priority_mode == "weighted":
        stages = [[(it, cfg.tau), (is_, -cfg.sigma), (il, cfg.lam)]]
        stages += [single[n] for n in ("period", "latency", "slack")]
    else:
        stages = [single[n] for n in cfg.priority]
    values: list[float] = []
    for coefs in stages:
        c = vector(coefs)
        res = linprog(c, A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
                      A_eq=a_eq, b_eq=[0.0], bounds=bounds, method="highs")
        if res.status == 2 and not values:
            return "infeasible", ()
        assert res.status == 0, res.message
        values.append(float(res.fun))
        a_ub.append(c)
        b_ub.append(res.fun + fix_tol)
    return "optimal", tuple(values)


def circuit_json_reference(c: Circuit) -> str:
    """The circuit document as the standard library's indent-2 encoder writes it."""
    doc = {
        "format_version": 1,
        "name": c.name,
        "num_rows": c.num_rows,
        "gates": [
            {"id": g.id, "cell": g.cell, "row": g.row, "clock_offset_ps": g.clock_offset}
            for g in c.gates
        ],
        "connections": [
            {"src": k.src, "dst": k.dst, "length_um": k.length}
            | ({} if k.prop is None else {"prop_ps": k.prop})
            for k in c.connections
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
