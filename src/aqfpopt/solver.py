"""Clock-delay schedule optimization.

The frequency-dependent timing functions are piecewise linear over shared
period breakpoints, so the one-hot segment selector of the mixed-integer
formulation can be replaced by plain enumeration: one problem per breakpoint
interval, each restricted to the segment where every timing function is
affine in the period. Identical-support constraints are collapsed to their
binding representative before a solve (an exact reduction).

Every collapsed row bounds P_k - P_m, a difference of row prefixes, by a
function affine in (T, S) (Fishburn, "Clock skew optimization", IEEE TC
1990). For fixed (T, S) the rows are therefore feasible iff the constraint
graph has no positive cycle, and the least latency is a longest path. Each
segment is solved by cutting planes (Kelley, "The cutting-plane method",
1960): a master LP with three bounded columns, T, S and L, and only ``<=``
rows, solved by a dense simplex with Bland's anti-cycling rule, gains one
cut per round from the positive cycle or the too-long path its point
violates most. Weighted mode and all six lexicographic orders go through
this one loop, stage by stage. Every cycle cut rises with S, so whether the
master is feasible is decided before each simplex run from its cycle cuts
at S = s_min, each a half-line in T; one or two of them prove an infeasible
segment. A numerical failure ends only its own segment, as a breakdown.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

# FIX_TOL and InfeasibleScheduleError live in model, so that checking a
# stored schedule never loads this module; they stay importable from here.
from aqfpopt.model import (
    CRITERIA,
    FIX_TOL,
    CellLibrary,
    Diagnostic,
    InfeasibleScheduleError,
    OptimizationConfig,
    Schedule,
    left_sum,
    log,
    segment_owning,
)
from aqfpopt.timing import TimingConstraintSet

#: Simplex tolerances (ps scale): row feasibility, reduced-cost optimality
#: and the smallest pivot magnitude accepted before declaring breakdown.
FEAS_TOL = 1e-7
OPT_TOL = 1e-9
PIVOT_TOL = 1e-11
#: Pivots one simplex run may take before declaring breakdown.
PIVOT_LIMIT = 10000
#: Upper bound on each row delta (ps); it keeps every master LP bounded.
DELTA_MAX = 10000.0


class SolverBreakdown(RuntimeError):
    """A numerical failure that leaves one segment unsolved."""


class Cut(NamedTuple):
    """The master row ``t*T + s*S + l*L <= rhs``.

    ``conns`` names the connections of a cycle cut and is empty for path
    cuts and stage-fix rows.
    """

    t: float
    s: float
    l: float
    rhs: float
    conns: tuple[str, ...] = ()


class Master:
    """Minimize ``objective`` over the boxed columns (T, S, L) and the rows.

    The cut loop sets ``objective`` per stage and appends to ``constraints``.
    """

    __slots__ = ("bounds", "objective", "constraints")

    def __init__(self, bounds, objective=(0.0, 0.0, 0.0), constraints=None):
        self.bounds: tuple[tuple[float, float], ...] = bounds  # (lower, upper) of T, S and L
        self.objective: tuple[float, float, float] = objective
        self.constraints: list[Cut] = [] if constraints is None else constraints


def _pivot(tab: list[list[float]], leave: int, enter: int) -> None:
    piv = tab[leave][enter]
    row = tab[leave] = [x / piv for x in tab[leave]]
    for i, other in enumerate(tab):
        f = other[enter]
        if i != leave and f != 0.0:
            tab[i] = [x - f * y for x, y in zip(other, row)]


def _run_simplex(tab: list[list[float]], basis: list[int]) -> None:
    """Minimize the tableau (a list of rows) in place; its last row holds the reduced costs.

    Every column is bounded, so an improving column always has a pivot row.
    """
    m = len(tab) - 1
    width = len(tab[-1])
    for _ in range(PIVOT_LIMIT):
        costs = tab[-1]
        enter = next((j for j in range(width - 1) if costs[j] < -OPT_TOL), -1)  # Bland: lowest index
        if enter < 0:
            return
        col = [tab[i][enter] for i in range(m)]
        cand = [i for i in range(m) if col[i] > PIVOT_TOL]
        if not cand:
            raise SolverBreakdown(f"largest pivot {max(col):.3e} in column {enter} is below {PIVOT_TOL}")
        # Overflowed weights leave inf or NaN entries; such a row is no pivot candidate.
        ratios = [(r, i) for i in cand if abs(r := tab[i][-1] / col[i]) < math.inf]
        if not ratios:
            raise SolverBreakdown(f"no finite ratio in column {enter}: the tableau overflowed")
        best = min(ratios)[0]
        tied = [i for r, i in ratios if r <= best + 1e-12]
        leave = min(tied, key=basis.__getitem__)  # Bland tie-break
        _pivot(tab, leave, enter)
        basis[leave] = enter
    raise SolverBreakdown(f"simplex took more than {PIVOT_LIMIT} pivots")


def lp_solve(master: Master) -> tuple[float, float, float]:
    """An optimal vertex (T, S, L) of a feasible master, by Bland's simplex.

    The columns are shifted to their lower bounds and each upper bound is
    one more row. Rows the lower corner violates are met by phase 1 with a
    single artificial column subtracted from every row (Chvatal, "Linear
    Programming", 1983, ch. 3). Infeasibility is decided before the call
    (``_certificate``), so a phase 1 that ends above FEAS_TOL is a breakdown.
    """
    lb = [lo for lo, _ in master.bounds]
    rows = [[float(j == k) for k in range(3)] + [hi - lo] for j, (lo, hi) in enumerate(master.bounds)]
    rows += [[c.t, c.s, c.l, c.rhs - c.t * lb[0] - c.s * lb[1] - c.l * lb[2]] for c in master.constraints]
    m = len(rows)
    art = 3 + m
    tab = [row[:3] + [float(i == k) for k in range(m)] + [-1.0, row[3]] for i, row in enumerate(rows)]
    basis = [3 + i for i in range(m)]
    worst = min(range(m), key=lambda i: tab[i][-1])
    if tab[worst][-1] < 0.0:
        tab.append([0.0] * art + [1.0, 0.0])
        _pivot(tab, worst, art)
        basis[worst] = art
        _run_simplex(tab, basis)
        if -tab[-1][-1] > FEAS_TOL:
            raise SolverBreakdown(f"phase 1 leaves the master infeasible by {-tab[-1][-1]:.3e}")
        if art in basis:  # basic at zero: swap it for the column with the largest entry
            k = basis.index(art)
            enter = max(range(art), key=lambda j: abs(tab[k][j]))
            _pivot(tab, k, enter)
            basis[k] = enter
        tab.pop()
    tab = [row[:art] + row[-1:] for row in tab]
    cost = list(master.objective) + [0.0] * (m + 1)
    for k, bv in enumerate(basis):
        if cost[bv] != 0.0:
            cost = [x - cost[bv] * y for x, y in zip(cost, tab[k])]
    tab.append(cost)
    _run_simplex(tab, basis)

    point = list(lb)
    for k, bv in enumerate(basis):
        if bv < 3:
            point[bv] += tab[k][-1]
    t, s, l = point
    for c in master.constraints:
        err = c.t * t + c.s * s + c.l * l - c.rhs
        if err > FEAS_TOL:
            raise SolverBreakdown(f"optimal basis violates a master row by {err:.3e}")
    for j, (lo, hi) in enumerate(master.bounds):
        if not lo - FIX_TOL <= point[j] <= hi + FIX_TOL:  # NaN too
            raise SolverBreakdown(f"optimal basis leaves the bounds [{lo}, {hi}] of column {j} at {point[j]!r}")
    # Within FIX_TOL, back into the box: a period past the last breakpoint has no timing.
    t, s, l = (min(hi, max(lo, x)) for x, (lo, hi) in zip(point, master.bounds))
    return t, s, l


# ---------------------------------------------------------------------------
# Segment restrictions


class SegmentRestriction(NamedTuple):
    """One breakpoint interval with every timing function affine inside it.

    ``t_lo``/``t_hi`` are the interval endpoints after intersection with the
    configured period bounds; the LP treats both ends as closed, ties at a
    shared breakpoint being resolved toward the lower-indexed segment when
    schedules are compared.
    """

    index: int
    t_lo: float
    t_hi: float
    lib: CellLibrary

    def fs_affine(self, src_cell: str, dst_cell: str) -> tuple[float, float]:
        k = self.index
        sa, sb = self.lib.timing(src_cell).c2q.segments[k]
        ua, ub = self.lib.timing(dst_cell).setup.segments[k]
        return sa + ua, sb + ub

    def fh_affine(self, src_cell: str, dst_cell: str, hold_mode: str) -> tuple[float, float]:
        k = self.index
        src = self.lib.timing(src_cell)
        dst = self.lib.timing(dst_cell)
        ca, cb = src.c2q.segments[k]
        ha, hb = dst.hold.segments[k]
        if hold_mode == "dlplace":
            return ca + 1.0 - ha, cb - hb
        ra, rb = src.rd.segments[k]
        return ca + ra - ha, cb + rb - hb


def _discontinuous_at(tcs: TimingConstraintSet, lib: CellLibrary, k: int) -> bool:
    """Whether a timing function of a cell in use jumps at breakpoint k."""
    cells = {*tcs.constraints.src_cell, *tcs.constraints.dst_cell}
    return any(fn.jump_at(k) for cell in cells for fn in lib.timing(cell).functions().values())


def segment_restrictions(lib: CellLibrary, cfg: OptimizationConfig) -> list[SegmentRestriction]:
    """Nonempty per-segment period intervals, in breakpoint order.

    Intervals are closed on both ends; a shared breakpoint therefore appears
    in two neighbouring segments, and the schedule optimizer resolves such
    ties toward the lower index, where the piecewise evaluation also lands.
    """
    t_lo, t_hi = cfg.period_bounds(lib)
    out = []
    bps = lib.breakpoints
    for k in range(len(bps) - 1):
        lo = max(bps[k], t_lo)
        hi = min(bps[k + 1], t_hi)
        if lo > hi:
            continue
        out.append(SegmentRestriction(index=k, t_lo=lo, t_hi=hi, lib=lib))
    return out


# ---------------------------------------------------------------------------
# Constraint collapse


def _collapse(tcs: TimingConstraintSet, seg: SegmentRestriction, cfg: OptimizationConfig):
    """The binding setup and hold row per (rows, slope), as constraint-graph edges.

    A setup row binds with the largest rhs and a hold row with the smallest;
    on a tie the first connection in file order stays the representative.
    Over the row prefixes, a setup row asks ``P_last - P_first >= fs(T) + S
    + rhs``, the edge first -> last, and a hold row ``P_last - P_first <=
    fh(T) - S + rhs``, the edge last -> first. Edges come sorted by rows,
    kind and slope.
    """
    affine: dict[tuple[str, str], tuple] = {}
    setup: dict[tuple, tuple[float, int]] = {}  # the rhs and the connection index of each binding row
    hold: dict[tuple, tuple[float, int]] = {}
    setup_of, hold_of = setup.get, hold.get
    hold_mode = cfg.hold_mode
    t = tcs.constraints
    for i, (first, last, src_cell, dst_cell, base) in enumerate(zip(t.first_row, t.last_row, t.src_cell,
                                                                     t.dst_cell, t.rhs)):
        pair = src_cell, dst_cell
        forms = affine.get(pair)
        if forms is None:
            forms = affine[pair] = (*seg.fs_affine(*pair), *seg.fh_affine(*pair, hold_mode))
        fs_slope, fs_intercept, fh_slope, fh_intercept = forms
        rhs = base + fs_intercept
        key = (first, last, fs_slope)
        cur = setup_of(key)
        if cur is None or rhs > cur[0]:
            setup[key] = (rhs, i)
        rhs = base + fh_intercept
        key = (first, last, fh_slope)
        cur = hold_of(key)
        if cur is None or rhs < cur[0]:
            hold[key] = (rhs, i)
    # No two rows share (first_row, last_row, kind, slope), so the sort
    # never compares further fields.
    rows = sorted(
        (first, last, kind, slope, rhs, f"{kind}:{t.src[i]}->{t.dst[i]}")
        for kind, best in (("setup", setup), ("hold", hold))
        for (first, last, slope), (rhs, i) in best.items()
    )
    return [(m, k, a, 1.0, c, tag) if kind == "setup" else (k, m, -a, 1.0, -c, tag)
            for m, k, kind, a, c, tag in rows]


# ---------------------------------------------------------------------------
# Per-segment solving: cutting planes on the constraint graph

#: Gain a longest-path relaxation must exceed to count (ps). A cycle whose
#: weight stays within it counts as zero, and a cut must be violated by more
#: than it to be added.
CYCLE_TOL = 1e-9


class _ConstraintGraph:
    """Collapsed rows and the delta bounds as difference constraints over the row prefixes.

    With P_r the sum of the first r row increments, an edge i -> j of weight
    ``t*T + s*S + c`` asks for P_j >= P_i + weight. The least solution with
    P_0 = 0 is the longest-path distance vector; it exists iff no cycle has
    positive weight.
    """

    def __init__(self, edges, num_nodes: int):
        self.n = num_nodes
        self.edges: list[tuple[int, int, float, float, float, Optional[str]]] = []
        for r in range(num_nodes - 1):
            self.edges.append((r, r + 1, 0.0, 0.0, 0.0, None))
            self.edges.append((r + 1, r, 0.0, 0.0, -DELTA_MAX, None))
        self.edges += edges
        self.up: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
        self.down: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
        for e, (i, j, *_) in enumerate(self.edges):
            (self.up if i < j else self.down)[j].append((i, e))

    def longest_paths(self, t: float, s: float):
        """``(dist, parent, [])`` at (t, s), or ``(None, None, cycles)`` with
        the positive cycles found as edge-index lists.

        Gauss-Seidel Bellman-Ford: a sweep up the rows over upward edges,
        then a sweep down over downward edges, with a check of the parent
        graph for cycles after each pair of sweeps.
        """
        n = self.n
        w = [a * t + b * s + c for _, _, a, b, c, _ in self.edges]
        dist = [0.0] * n  # a lower bound: every node is reachable from 0 at weight >= 0
        parent = [-1] * n
        sweeps = ((range(n), self.up), (range(n - 1, -1, -1), self.down))
        for _ in range(2 * n + 2):
            changed = False
            for order, into in sweeps:
                for j in order:
                    best = dist[j] + CYCLE_TOL
                    via = -1
                    for i, e in into[j]:
                        cand = dist[i] + w[e]
                        if cand > best:
                            best, via = cand, e
                    if via >= 0:
                        dist[j] = best
                        parent[j] = via
                        changed = True
            if not changed:
                return dist, parent, []
            cycles = self._parent_cycles(parent)
            if cycles:
                return None, None, cycles
        raise SolverBreakdown("longest-path sweeps did not settle")

    def _parent_cycles(self, parent: list[int]) -> list[list[int]]:
        seen = [0] * self.n
        cycles = []
        for start in range(self.n):
            v = start
            while v >= 0 and not seen[v]:
                seen[v] = start + 1
                v = self.edges[parent[v]][0] if parent[v] >= 0 else -1
            if v >= 0 and seen[v] == start + 1:
                cycle, u = [], v
                while True:
                    cycle.append(parent[u])
                    u = self.edges[parent[u]][0]
                    if u == v:
                        break
                cycles.append(cycle)
        return cycles

    def path_to_last(self, parent: list[int]) -> list[int]:
        """Edges of the parent-tree path into the last row.

        The walk stops at a node that was never relaxed. That node keeps
        distance 0, which the all-zero forward edges reach from row 0, so
        the path's weight still bounds the latency from below.
        """
        path, v = [], self.n - 1
        while parent[v] >= 0:
            path.append(parent[v])
            v = self.edges[parent[v]][0]
        return path

    def cut(self, edges: list[int]) -> tuple[float, float, float, tuple[str, ...]]:
        """Summed weight coefficients of T and S, the constant, and the connections."""
        ta = left_sum(self.edges[e][2] for e in edges)
        sa = left_sum(self.edges[e][3] for e in edges)
        c = left_sum(self.edges[e][4] for e in edges)
        tags = tuple(dict.fromkeys(self.edges[e][5] for e in edges if self.edges[e][5]))
        return ta, sa, c, tags


class Certificate(NamedTuple):
    """One or two cycle cuts that leave no period at S = s_min."""

    cycles: tuple[tuple[str, ...], ...]  # the connections of each cut
    excess: float  # least, over the segment's periods, of the cuts' largest weight (ps)


def _certificate(master: Master) -> Optional[Certificate]:
    """Decide from the cycle cuts alone whether the master is infeasible.

    Every cycle cut reads ``t*T + s*S <= rhs`` with s >= 1, so S = s_min is
    best for all of them at once, and each is a half-line in T. The falling
    cut with the largest root and the rising cut with the smallest root
    bound the periods left, so no period is left iff one of them is
    positive over the whole segment or the two are nowhere both satisfied.
    A master that passes is feasible: path cuts and fix rows are only added
    where the graph settled, and every such point satisfies all of them.
    """
    (t_lo, t_hi), (s_min, _), _ = master.bounds

    def weight(c, t):
        return c.t * t + c.s * s_min - c.rhs

    def root(c):  # where the weight crosses zero; a cut flat in T is true or false throughout
        return -weight(c, 0.0) / c.t if c.t else -math.inf if weight(c, 0.0) > 0.0 else math.inf

    cycle_cuts = [c for c in master.constraints if c.conns]
    falling = max((c for c in cycle_cuts if c.t < 0.0), key=root, default=None)
    rising = min((c for c in cycle_cuts if c.t >= 0.0), key=root, default=None)
    extreme = [c for c in (falling, rising) if c]
    for cuts in [[c] for c in extreme] + [extreme] * (len(extreme) == 2):
        periods = [t_lo, t_hi]
        if len(cuts) == 2:  # where the falling and the rising weight cross
            cross = (weight(rising, 0.0) - weight(falling, 0.0)) / (falling.t - rising.t)
            periods.append(min(t_hi, max(t_lo, cross)))
        excess = min(max(weight(c, t) for c in cuts) for t in periods)
        if excess > CYCLE_TOL:
            return Certificate(tuple(c.conns for c in cuts), excess)
    return None


def _cut_loop(g: _ConstraintGraph, master: Master, cuts: set):
    """Solve the master, adding the cut its point violates most, until none is new.

    At the master point (T, S) a positive cycle gives the cut
    ``weight(T, S) <= 0``. Once the graph settles, the longest path into the
    last row gives ``weight(T, S) <= L`` if it is longer than the master's
    L. ``cuts`` holds the edge sets already in the master, so no cycle or
    path is added twice and the loop ends. Returns the optimal point and the
    final distances, or the certificate once the cycle cuts leave no period.
    """
    while True:
        cert = _certificate(master)
        if cert:
            return None, None, cert
        t, s, latency = point = lp_solve(master)
        dist, parent, cycles = g.longest_paths(t, s)
        violated = []
        for edges, bound in [(c, 0.0) for c in cycles] or [(g.path_to_last(parent), latency)]:
            ta, sa, c, tags = g.cut(edges)
            excess = ta * t + sa * s + c - bound
            if excess > CYCLE_TOL:
                violated.append((excess, frozenset(edges), ta, sa, c, tags))
        new = [v for v in violated if v[1] not in cuts]
        if new:
            _, key, ta, sa, c, tags = max(new, key=lambda v: v[0])
            cuts.add(key)
            master.constraints.append(Cut(ta, sa, 0.0, -c, tags) if cycles else Cut(ta, sa, -1.0, -c))
        elif cycles:
            raise SolverBreakdown("the master optimum lies on positive cycles it has cut off already")
        else:
            return point, dist, None


_STAGE_VECTORS = {"period": (1.0, 0.0, 0.0), "latency": (0.0, 0.0, 1.0), "slack": (0.0, -1.0, 0.0)}


def _stages(cfg: OptimizationConfig) -> list[tuple[float, float, float]]:
    """Stage objectives over (T, S, L) in solve order: the weighted vector and
    then period, latency and slack in weighted mode, ``cfg.priority`` otherwise.

    The weighted vector is divided by its largest weight, which keeps the
    argmin: the stage-fix row then holds coefficients of at most 1, as the
    simplex tolerances assume, however large the weights are."""
    if cfg.priority_mode == "lexicographic":
        return [_STAGE_VECTORS[name] for name in cfg.priority]
    scale = max(cfg.tau, cfg.sigma, cfg.lam)
    weighted = (cfg.tau / scale, -cfg.sigma / scale, cfg.lam / scale)
    return [weighted] + [_STAGE_VECTORS[name] for name in CRITERIA]


class SegmentOutcome(NamedTuple):
    segment: SegmentRestriction
    status: str  # "optimal", "infeasible", "pruned" or "breakdown"
    stage_values: tuple[float, ...] = ()
    period: float = math.nan
    slack: float = math.nan
    deltas: tuple[float, ...] = ()
    violations: Optional[Certificate] = None  # why an infeasible segment is infeasible
    reason: str = ""  # what broke down


def _solve_segment(edges, num_deltas: int, seg: SegmentRestriction, cfg: OptimizationConfig):
    """Optimize the stage criteria in order over (T, S, L), fixing each within FIX_TOL.

    The master starts from the bounds alone and gains its rows from
    ``_cut_loop``; each finished stage adds the row ``objective <= optimum +
    FIX_TOL``. The previous stage's optimum meets every later row, so only
    the first stage can end with a certificate. The row increments are the
    final longest-path distance differences.
    """
    g = _ConstraintGraph(edges, num_deltas + 1)
    master = Master(((seg.t_lo, seg.t_hi), (cfg.s_min, cfg.s_max), (0.0, num_deltas * DELTA_MAX)))
    cuts: set = set()
    stage_values = []
    for vec in _stages(cfg):
        master.objective = vec
        point, dist, cert = _cut_loop(g, master, cuts)
        if cert:
            return SegmentOutcome(segment=seg, status="infeasible", violations=cert)
        value = left_sum(a * x for a, x in zip(vec, point))
        stage_values.append(value)
        master.constraints.append(Cut(*vec, value + FIX_TOL))
    deltas = tuple(min(DELTA_MAX, max(0.0, dist[r + 1] - dist[r])) for r in range(num_deltas))
    return SegmentOutcome(seg, "optimal", tuple(stage_values), period=point[0], slack=point[1], deltas=deltas)


# ---------------------------------------------------------------------------
# Public solver entry points


def _solve_outcome(
    tcs: TimingConstraintSet,
    seg: SegmentRestriction,
    cfg: OptimizationConfig,
) -> SegmentOutcome:
    # A segment owns its upper breakpoint only. When a timing function jumps
    # at the shared lower breakpoint, claiming it with this segment's affine
    # values would disagree with the piecewise evaluation, so the interval is
    # nudged open by the fixing tolerance; continuous libraries are exact.
    if (
        seg.index > 0
        and seg.t_lo == seg.lib.breakpoints[seg.index]
        and _discontinuous_at(tcs, seg.lib, seg.index)
    ):
        if seg.t_lo + FIX_TOL > seg.t_hi:
            return SegmentOutcome(segment=seg, status="pruned")
        seg = seg._replace(t_lo=seg.t_lo + FIX_TOL)
    try:
        return _solve_segment(_collapse(tcs, seg, cfg), tcs.num_deltas, seg, cfg)
    except SolverBreakdown as e:
        return SegmentOutcome(segment=seg, status="breakdown", reason=str(e))


def _lex_le(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """True when a is lexicographically no worse than b at the fix tolerance."""
    for x, y in zip(a, b):
        if x < y - FIX_TOL:
            return True
        if x > y + FIX_TOL:
            return False
    return True


def optimize_schedule(
    tcs: TimingConstraintSet,
    lib: CellLibrary,
    cfg: OptimizationConfig,
    details: Optional[dict] = None,
) -> Schedule:
    """Solve every segment restriction and return the best feasible schedule.

    Weighted mode compares the refined weighted optima across segments;
    lexicographic mode compares the per-segment stage-value tuples. Ties
    resolve to the lower segment index, matching the boundary ownership
    rule. A segment whose solve breaks down numerically is skipped with a
    warning; when no segment is feasible, any breakdown is reported as
    ``SOLVER_BREAKDOWN``. Otherwise the error names the connections of the
    certificate with the smallest X: one or two positive cycles that leave
    no period of their segment at S = s_min, where at every period one of
    them weighs at least X ps.
    """
    segs = segment_restrictions(lib, cfg)
    if not segs:
        lo, hi = cfg.period_bounds(lib)
        raise InfeasibleScheduleError(
            [Diagnostic("INFEASIBLE", "period", f"no segment intersects [{lo}, {hi}]")]
        )
    outcomes = [_solve_outcome(tcs, seg, cfg) for seg in segs]
    if details is not None:
        details["segments_solved"] = len(outcomes)
        details["outcomes"] = outcomes

    feasible = [o for o in outcomes if o.status == "optimal"]
    broken = [o for o in outcomes if o.status == "breakdown"]
    if not feasible and broken:
        raise InfeasibleScheduleError(
            [Diagnostic("SOLVER_BREAKDOWN", f"segment {o.segment.index}", o.reason) for o in broken]
        )
    for o in broken:
        log.warning("segment %d: solver breakdown (%s); skipped", o.segment.index, o.reason)
    if not feasible:  # the lowest segment is never pruned, so one is infeasible
        cert = min((o.violations for o in outcomes if o.violations), key=lambda c: c.excess)
        raise InfeasibleScheduleError([
            Diagnostic("INFEASIBLE", conn, f"on a positive cycle violated by {cert.excess:.6g} ps")
            for conn in dict.fromkeys(conn for cycle in cert.cycles for conn in cycle)
        ])

    best = feasible[0]
    for cand in feasible[1:]:
        if not _lex_le(best.stage_values, cand.stage_values):
            best = cand

    return Schedule(
        period=best.period,
        row_deltas=best.deltas,
        slack=best.slack,
        latency=left_sum(best.deltas),
        segment_index=segment_owning(lib.breakpoints, best.period),
    )
