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
1960): a master LP over (T, S, L) alone, solved with an in-house two-phase
simplex using Bland's anti-cycling rule, gains one cut per round from the
positive cycle or the too-long path its point violates most. Weighted mode
and all six lexicographic orders go through this one loop, stage by stage.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

from aqfpopt.model import (
    CellLibrary,
    Diagnostic,
    OptimizationConfig,
    Schedule,
    ValidationError,
)
from aqfpopt.timing import TimingConstraint, TimingConstraintSet

log = logging.getLogger("aqfpopt")

#: Simplex tolerances (ps scale): phase-1 feasibility, reduced-cost optimality
#: and the smallest pivot magnitude accepted before declaring breakdown.
FEAS_TOL = 1e-7
OPT_TOL = 1e-9
PIVOT_TOL = 1e-11

#: Tolerance used when a lexicographic stage fixes its criterion.
FIX_TOL = 1e-6

class DegeneratePivotError(RuntimeError):
    def __init__(self, row: int, value: float):
        self.row = row
        self.value = value
        super().__init__(f"pivot magnitude {value:.3e} below {PIVOT_TOL} in constraint row {row}")


class InfeasibleScheduleError(ValidationError):
    pass


@dataclass(frozen=True)
class LpConstraint:
    terms: dict[str, float]
    sense: str  # "<=", ">=" or "="
    rhs: float
    tag: object = None  # names the row in infeasibility reports


class LpProblem:
    """A named-variable linear program, minimization sense."""

    def __init__(self):
        self.variables: dict[str, tuple[float, Optional[float]]] = {}
        self.constraints: list[LpConstraint] = []
        self.objective: dict[str, float] = {}

    def add_variable(self, name: str, lb: float, ub: Optional[float] = None) -> None:
        if name in self.variables:
            raise ValueError(f"variable {name!r} already declared")
        if not math.isfinite(lb):
            raise ValueError(f"variable {name!r} needs a finite lower bound")
        self.variables[name] = (float(lb), None if ub is None else float(ub))

    def add_constraint(self, terms: dict[str, float], sense: str, rhs: float, tag=None) -> None:
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"unknown sense {sense!r}")
        for v in terms:
            if v not in self.variables:
                raise ValueError(f"constraint references undeclared variable {v!r}")
        self.constraints.append(LpConstraint(dict(terms), sense, float(rhs), tag))

    def set_objective(self, terms: dict[str, float]) -> None:
        for v in terms:
            if v not in self.variables:
                raise ValueError(f"objective references undeclared variable {v!r}")
        self.objective = dict(terms)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal", "infeasible" or "unbounded"
    values: dict[str, float] = field(default_factory=dict)
    objective: Optional[float] = None
    violations: tuple[tuple[object, float], ...] = ()


def _pivot(tab: list[list[float]], leave: int, enter: int) -> None:
    piv = tab[leave][enter]
    row = tab[leave] = [x / piv for x in tab[leave]]
    for i, other in enumerate(tab):
        f = other[enter]
        if i != leave and f != 0.0:
            tab[i] = [x - f * y for x, y in zip(other, row)]


def _run_simplex(tab: list[list[float]], basis: list[int]) -> str:
    """Minimize the tableau (a list of rows) in place; its last row holds the reduced costs."""
    m = len(tab) - 1
    width = len(tab[-1])
    limit = 20000 + 20 * width
    for _ in range(limit):
        costs = tab[-1]
        enter = next((j for j in range(width - 1) if costs[j] < -OPT_TOL), -1)  # Bland: lowest index
        if enter < 0:
            return "optimal"
        col = [tab[i][enter] for i in range(m)]
        cand = [i for i in range(m) if col[i] > PIVOT_TOL]
        if not cand:
            if any(x > 0 for x in col):
                row = max(range(m), key=col.__getitem__)
                raise DegeneratePivotError(row, col[row])
            return "unbounded"
        ratios = [tab[i][-1] / col[i] for i in cand]
        best = min(ratios)
        tied = [i for i, r in zip(cand, ratios) if r <= best + 1e-12]
        leave = min(tied, key=basis.__getitem__)  # Bland tie-break
        _pivot(tab, leave, enter)
        basis[leave] = enter
    raise RuntimeError("simplex iteration limit exceeded")


def lp_solve(p: LpProblem) -> LpSolution:
    """Two-phase simplex with Bland's rule.

    All variables must carry finite lower bounds; upper bounds become extra
    rows. Returns an optimal basic solution, or infeasibility with the
    phase-1 residual per constraint, or an unbounded status.
    """
    names = list(p.variables)
    n = len(names)
    idx = {v: j for j, v in enumerate(names)}
    lb = [p.variables[v][0] for v in names]

    rows, senses, rhs, tags = [], [], [], []
    for con in p.constraints:
        a = [0.0] * n
        for v, coef in con.terms.items():
            a[idx[v]] += coef
        rows.append(a)
        senses.append(con.sense)
        rhs.append(con.rhs - sum(x * l for x, l in zip(a, lb)))
        tags.append(con.tag)
    for j, v in enumerate(names):
        u = p.variables[v][1]
        if u is None:
            continue
        if u - lb[j] < -1e-12:
            return LpSolution(status="infeasible", violations=((f"bound:{v}", lb[j] - u),))
        a = [0.0] * n
        a[j] = 1.0
        rows.append(a)
        senses.append("<=")
        rhs.append(u - lb[j])
        tags.append(f"bound:{v}")

    m = len(rows)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    slack_rows = [i for i in range(m) if senses[i] == "<="]
    surp_rows = [i for i in range(m) if senses[i] == ">="]
    art_rows = [i for i in range(m) if senses[i] in (">=", "=")]
    ns, nr, na = len(slack_rows), len(surp_rows), len(art_rows)
    nu = n + ns + nr + na
    art_start = n + ns + nr

    tab = [rows[i] + [0.0] * (nu - n) + [rhs[i]] for i in range(m)] + [[0.0] * (nu + 1)]
    basis = [0] * m
    art_of_row: dict[int, int] = {}
    for k, i in enumerate(slack_rows):
        tab[i][n + k] = 1.0
        basis[i] = n + k
    for k, i in enumerate(surp_rows):
        tab[i][n + ns + k] = -1.0
    for k, i in enumerate(art_rows):
        tab[i][art_start + k] = 1.0
        basis[i] = art_start + k
        art_of_row[i] = art_start + k

    if na:
        # Phase 1: minimize the artificial sum.
        cost = [0.0] * art_start + [1.0] * na + [0.0]
        for i in art_rows:
            cost = [x - y for x, y in zip(cost, tab[i])]
        tab[-1] = cost
        status = _run_simplex(tab, basis)
        if status != "optimal":
            raise RuntimeError(f"phase 1 ended {status}")
        infeas = -tab[-1][-1]
        if infeas > FEAS_TOL:
            art_vals = {bv: tab[k][-1] for k, bv in enumerate(basis) if bv >= art_start}
            residuals = []
            for i in art_rows:
                r = art_vals.get(art_of_row[i], 0.0)
                if r > FEAS_TOL:
                    residuals.append((tags[i], float(r)))
            residuals.sort(key=lambda kv: -kv[1])
            return LpSolution(status="infeasible", violations=tuple(residuals))
        # Drive surviving artificials out of the basis, dropping redundant rows.
        drop = set()
        for k in range(m):
            if basis[k] < art_start:
                continue
            enter = next((j for j in range(art_start) if abs(tab[k][j]) > 1e-9), -1)
            if enter >= 0:
                _pivot(tab, k, enter)
                basis[k] = enter
            else:
                drop.add(k)
        if drop:
            tab = [row for k, row in enumerate(tab) if k not in drop]
            basis = [bv for k, bv in enumerate(basis) if k not in drop]

    tab = [row[:art_start] + row[-1:] for row in tab]
    nu = art_start
    cost = [0.0] * (nu + 1)
    for v, coef in p.objective.items():
        cost[idx[v]] += coef
    tab[-1] = list(cost)
    for k, bv in enumerate(basis):
        if cost[bv] != 0.0:
            tab[-1] = [x - cost[bv] * y for x, y in zip(tab[-1], tab[k])]
    status = _run_simplex(tab, basis)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    y = [0.0] * nu
    for k, bv in enumerate(basis):
        y[bv] = tab[k][-1]
    values = {v: lb[j] + y[j] for j, v in enumerate(names)}
    for con in p.constraints:
        act = sum(coef * values[v] for v, coef in con.terms.items())
        err = act - con.rhs
        ok = (
            err <= FEAS_TOL
            if con.sense == "<="
            else err >= -FEAS_TOL
            if con.sense == ">="
            else abs(err) <= FEAS_TOL
        )
        if not ok:
            raise RuntimeError(
                f"optimal basis violates constraint {con.tag or con.terms} by {err:.3e}"
            )
    objective = sum(coef * values[v] for v, coef in p.objective.items())
    return LpSolution(status="optimal", values=values, objective=float(objective))


# ---------------------------------------------------------------------------
# Segment restrictions


@dataclass(frozen=True)
class SegmentRestriction:
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
    cells = {tc.src_cell for tc in tcs.constraints} | {tc.dst_cell for tc in tcs.constraints}
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


class CollapsedRow(NamedTuple):
    """Binding representative of all rows sharing one lhs shape.

    The row covers the increments delta_first_row .. delta_{last_row-1}.
    """

    first_row: int
    last_row: int
    kind: str  # "setup" or "hold"
    t_coef: float  # slope of the combined timing term on this segment
    rhs: float  # rhs constant with the affine intercept folded in
    source: str  # connection key of the binding member


def _collapse(tcs: TimingConstraintSet, seg: SegmentRestriction, cfg: OptimizationConfig):
    """Binding setup and hold rows per (rows, slope), sorted by that shape.

    A setup row binds with the largest rhs and a hold row with the smallest;
    on a tie the first connection in file order stays the representative.
    """
    affine: dict[tuple[str, str], tuple] = {}
    setup: dict[tuple, tuple[float, TimingConstraint]] = {}
    hold: dict[tuple, tuple[float, TimingConstraint]] = {}
    for tc in tcs.constraints:
        pair = tc.src_cell, tc.dst_cell
        forms = affine.get(pair)
        if forms is None:
            forms = affine[pair] = (*seg.fs_affine(*pair), *seg.fh_affine(*pair, cfg.hold_mode))
        fs_slope, fs_intercept, fh_slope, fh_intercept = forms
        rhs = tc.rhs + fs_intercept
        key = (tc.first_row, tc.last_row, fs_slope)
        cur = setup.get(key)
        if cur is None or rhs > cur[0]:
            setup[key] = (rhs, tc)
        rhs = tc.rhs + fh_intercept
        key = (tc.first_row, tc.last_row, fh_slope)
        cur = hold.get(key)
        if cur is None or rhs < cur[0]:
            hold[key] = (rhs, tc)
    # No two rows share (first_row, last_row, kind, t_coef), so the sort
    # never compares further fields.
    return sorted(
        CollapsedRow(first, last, kind, slope, rhs, tc.key)
        for kind, best in (("setup", setup), ("hold", hold))
        for (first, last, slope), (rhs, tc) in best.items()
    )


# ---------------------------------------------------------------------------
# Per-segment solving: cutting planes on the constraint graph

#: Gain a longest-path relaxation must exceed to count (ps). A cycle whose
#: weight stays within it counts as zero, and a cut must be violated by more
#: than it to be added.
CYCLE_TOL = 1e-9


class _ConstraintGraph:
    """Collapsed rows as difference constraints over the row prefixes.

    With P_r the sum of the first r row increments, an edge i -> j of weight
    ``t*T + s*S + c`` asks for P_j >= P_i + weight. The least solution with
    P_0 = 0 is the longest-path distance vector; it exists iff no cycle has
    positive weight.
    """

    def __init__(self, rows, num_nodes: int, delta_max: float):
        self.n = num_nodes
        self.edges: list[tuple[int, int, float, float, float, Optional[str]]] = []
        for r in range(num_nodes - 1):
            self.edges.append((r, r + 1, 0.0, 0.0, 0.0, None))
            self.edges.append((r + 1, r, 0.0, 0.0, -delta_max, None))
        for row in rows:
            m, k = row.first_row, row.last_row
            tag = f"{row.kind}:{row.source}"
            if row.kind == "setup":
                self.edges.append((m, k, row.t_coef, 1.0, row.rhs, tag))
            else:
                self.edges.append((k, m, -row.t_coef, 1.0, -row.rhs, tag))
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
        raise RuntimeError("longest-path sweeps did not settle")

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
        ta = sum(self.edges[e][2] for e in edges)
        sa = sum(self.edges[e][3] for e in edges)
        c = sum(self.edges[e][4] for e in edges)
        tags = tuple(dict.fromkeys(self.edges[e][5] for e in edges if self.edges[e][5]))
        return ta, sa, c, tags


def _cut_loop(g: _ConstraintGraph, master: LpProblem, cuts: set):
    """Solve the master, adding the cut its point violates most, until none is new.

    At the master point (T, S) a positive cycle gives the cut
    ``weight(T, S) <= 0``. Once the graph settles, the longest path into the
    last row gives ``weight(T, S) <= L`` if it is longer than the master's
    L. ``cuts`` holds the edge sets already in the master, so no cycle or
    path is added twice and the loop ends. Returns the master's solution and
    the final distances; a point whose positive cycles are all in the master
    already ends ``infeasible``, with those cycles' weights as violations.
    """
    while True:
        sol = lp_solve(master)
        if sol.status != "optimal":
            return sol, None
        t, s, latency = sol.values["T"], sol.values["S"], sol.values["L"]
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
            terms = {"T": ta, "S": sa} if cycles else {"T": ta, "S": sa, "L": -1.0}
            master.add_constraint(terms, "<=", -c, tag=tags)
        elif cycles:
            return LpSolution("infeasible", violations=tuple((v[5], v[0]) for v in violated)), None
        else:
            return sol, dist


_STAGE_VECTORS = {"period": {"T": 1.0}, "latency": {"L": 1.0}, "slack": {"S": -1.0}}


def _stages(cfg: OptimizationConfig) -> list[tuple[str, dict[str, float]]]:
    """Stage objectives in solve order: the weighted vector and then period,
    latency and slack in weighted mode, ``cfg.priority`` otherwise."""
    if cfg.priority_mode == "lexicographic":
        return [(name, _STAGE_VECTORS[name]) for name in cfg.priority]
    weighted = {"T": cfg.tau, "S": -cfg.sigma, "L": cfg.lam}
    return [("weighted", weighted)] + [
        (name, _STAGE_VECTORS[name]) for name in ("period", "latency", "slack")
    ]


@dataclass
class SegmentOutcome:
    segment: SegmentRestriction
    status: str
    stage_values: tuple[float, ...] = ()
    values: dict[str, float] = field(default_factory=dict)
    #: Connections of each violated cycle cut, with its violation in ps.
    violations: tuple[tuple[tuple[str, ...], float], ...] = ()


def _solve_segment(rows, num_deltas: int, seg: SegmentRestriction, cfg: OptimizationConfig):
    """Optimize the stage criteria in order over (T, S, L), fixing each within FIX_TOL.

    Criteria that are plain variables are fixed by tightening their bounds;
    the weighted combination is fixed with one extra row. The master LP
    starts from the bounds alone and gains its rows from ``_cut_loop``; the
    row increments are the final longest-path distance differences.
    """
    g = _ConstraintGraph(rows, num_deltas + 1, cfg.delta_max)
    master = LpProblem()
    master.add_variable("T", seg.t_lo, seg.t_hi)
    master.add_variable("S", cfg.s_min, cfg.s_max)
    master.add_variable("L", 0.0, num_deltas * cfg.delta_max)
    cuts: set = set()
    stage_values = []
    best = None
    for name, vec in _stages(cfg):
        master.set_objective(vec)
        sol, dist = _cut_loop(g, master, cuts)
        if sol.status != "optimal":
            if best is None:
                return SegmentOutcome(segment=seg, status=sol.status, violations=sol.violations)
            log.warning("stage %s on segment %d ended %s; keeping previous stage", name, seg.index, sol.status)
            break
        best = sol, dist
        stage_values.append(float(sol.objective))
        if len(vec) == 1:
            (var,) = vec
            v = sol.values[var]
            lo, hi = master.variables[var]
            master.variables[var] = (max(lo, v - FIX_TOL), min(hi, v + FIX_TOL))
        else:
            master.add_constraint(dict(vec), "<=", float(sol.objective) + FIX_TOL, tag=(f"fix:{name}",))
    sol, dist = best
    deltas = [min(cfg.delta_max, max(0.0, dist[r + 1] - dist[r])) for r in range(num_deltas)]
    values = {f"delta_{r}": d for r, d in enumerate(deltas)}
    values.update({"T": sol.values["T"], "S": sol.values["S"]})
    return SegmentOutcome(segment=seg, status="optimal", stage_values=tuple(stage_values), values=values)


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
        seg = replace(seg, t_lo=seg.t_lo + FIX_TOL)
    return _solve_segment(_collapse(tcs, seg, cfg), tcs.num_deltas, seg, cfg)


def _lex_le(a: tuple[float, ...], b: tuple[float, ...], tol: float = FIX_TOL) -> bool:
    """True when a is lexicographically no worse than b at the fix tolerance."""
    for x, y in zip(a, b):
        if x < y - tol:
            return True
        if x > y + tol:
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
    rule. When every segment is infeasible the error names the connections
    behind the least-violating segment: those on the positive cycles whose
    cuts keep its master LP infeasible, with each cut's phase-1 residual.
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
    if not feasible:
        scored = [o for o in outcomes if o.status == "infeasible"] or outcomes
        worst = min(
            scored,
            key=lambda o: sum(v for _, v in o.violations) if o.violations else math.inf,
        )
        diags = [
            Diagnostic("INFEASIBLE", conn, f"on a positive cycle violated by {v:.6g} ps")
            for conns, v in worst.violations[:5]
            for conn in conns
        ] or [Diagnostic("INFEASIBLE", f"segment {worst.segment.index}", "no feasible schedule")]
        raise InfeasibleScheduleError(diags)

    best = feasible[0]
    for cand in feasible[1:]:
        if not _lex_le(best.stage_values, cand.stage_values):
            best = cand

    nd = tcs.num_deltas
    deltas = tuple(best.values[f"delta_{r}"] for r in range(nd))
    period = best.values["T"]
    seg_index = best.segment.index
    # A period landing exactly on the segment's open lower breakpoint belongs
    # to the segment below; relabel so the reported segment owns the period.
    bps = lib.breakpoints
    if seg_index > 0 and period <= bps[seg_index] and best.segment.t_lo == bps[seg_index]:
        seg_index -= 1
    return Schedule(
        period=period,
        row_deltas=deltas,
        slack=best.values["S"],
        latency=sum(deltas),
        segment_index=seg_index,
    )


@dataclass(frozen=True)
class ExploreRow:
    label: str
    config: OptimizationConfig
    schedule: Optional[Schedule]
    error: tuple[Diagnostic, ...] = ()


def explore(
    tcs: TimingConstraintSet, lib: CellLibrary, configs, labels=None
) -> list[ExploreRow]:
    """Run the optimizer once per configuration; failures do not stop the run."""
    rows = []
    for i, cfg in enumerate(configs):
        label = labels[i] if labels else f"config{i}"
        try:
            sched = optimize_schedule(tcs, lib, cfg)
            rows.append(ExploreRow(label=label, config=cfg, schedule=sched))
        except InfeasibleScheduleError as e:
            rows.append(
                ExploreRow(label=label, config=cfg, schedule=None, error=tuple(e.diagnostics))
            )
    return rows
