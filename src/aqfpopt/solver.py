"""Clock-delay schedule optimization.

The frequency-dependent timing functions are piecewise linear over shared
period breakpoints, so the one-hot segment selector of the mixed-integer
formulation can be replaced by plain enumeration: one problem per breakpoint
interval, each restricted to the segment where every timing function is
affine in the period. Identical-support constraints are collapsed to their
binding representative before a solve (an exact reduction).

Lexicographic orders led by the period are solved exactly as difference
constraints over the row prefixes: every collapsed row bounds P_k - P_m by
a function affine in (T, S), so each stage is a longest-path problem and
the period and slack stages are Newton iterations on positive-cycle
weights (Fishburn, "Clock skew optimization", IEEE TC 1990). Weighted mode
and orders led by latency or slack solve staged LPs with an in-house
two-phase simplex using Bland's anti-cycling rule; the test suite
cross-checks the two solvers segment by segment.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from aqfpopt.model import (
    CellLibrary,
    Diagnostic,
    OptimizationConfig,
    Schedule,
    ValidationError,
)
from aqfpopt.timing import TimingConstraintSet

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
    tag: Optional[str] = None


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
    violations: tuple[tuple[Optional[str], float], ...] = ()


def _run_simplex(tab, basis: list[int]) -> str:
    """Minimize the numpy tableau in place; its last row holds the reduced costs."""
    import numpy as np

    m = tab.shape[0] - 1
    limit = 20000 + 20 * tab.shape[1]
    basis_arr = basis  # mutated in place
    for _ in range(limit):
        costs = tab[-1, :-1]
        neg = np.nonzero(costs < -OPT_TOL)[0]
        if neg.size == 0:
            return "optimal"
        enter = int(neg[0])  # Bland: lowest index
        col = tab[:m, enter]
        pos = col > PIVOT_TOL
        if not pos.any():
            if (col > 0).any():
                row = int(np.argmax(col))
                raise DegeneratePivotError(row, float(col[row]))
            return "unbounded"
        cand = np.nonzero(pos)[0]
        ratios = tab[cand, -1] / col[cand]
        best = ratios.min()
        tied = cand[ratios <= best + 1e-12]
        leave = int(tied[np.argmin([basis_arr[i] for i in tied])])  # Bland tie-break
        piv = tab[leave, enter]
        if piv < PIVOT_TOL:
            raise DegeneratePivotError(leave, float(piv))
        tab[leave] /= piv
        colvec = tab[:, enter].copy()
        colvec[leave] = 0.0
        tab -= np.outer(colvec, tab[leave])
        basis_arr[leave] = enter
    raise RuntimeError("simplex iteration limit exceeded")


def lp_solve(p: LpProblem) -> LpSolution:
    """Two-phase simplex with Bland's rule.

    All variables must carry finite lower bounds; upper bounds become extra
    rows. Returns an optimal basic solution, or infeasibility with the
    phase-1 residual per constraint, or an unbounded status.
    """
    # Imported here: only weighted mode and orders led by latency or slack
    # run the simplex, and numpy dominates the import time of the package.
    import numpy as np

    names = list(p.variables)
    n = len(names)
    idx = {v: j for j, v in enumerate(names)}
    lb = np.array([p.variables[v][0] for v in names], dtype=float)

    rows, senses, rhs, tags = [], [], [], []
    for con in p.constraints:
        a = np.zeros(n)
        for v, coef in con.terms.items():
            a[idx[v]] += coef
        rows.append(a)
        senses.append(con.sense)
        rhs.append(con.rhs - float(a @ lb))
        tags.append(con.tag)
    for j, v in enumerate(names):
        u = p.variables[v][1]
        if u is None:
            continue
        if u - lb[j] < -1e-12:
            return LpSolution(status="infeasible", violations=((f"bound:{v}", lb[j] - u),))
        a = np.zeros(n)
        a[j] = 1.0
        rows.append(a)
        senses.append("<=")
        rhs.append(u - lb[j])
        tags.append(f"bound:{v}")

    m = len(rows)
    A = np.array(rows) if m else np.zeros((0, n))
    b = np.array(rhs) if m else np.zeros(0)
    for i in range(m):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    slack_rows = [i for i in range(m) if senses[i] == "<="]
    surp_rows = [i for i in range(m) if senses[i] == ">="]
    art_rows = [i for i in range(m) if senses[i] in (">=", "=")]
    ns, nr, na = len(slack_rows), len(surp_rows), len(art_rows)
    nu = n + ns + nr + na
    art_start = n + ns + nr

    tab = np.zeros((m + 1, nu + 1))
    tab[:m, :n] = A
    tab[:m, -1] = b
    basis = [0] * m
    art_of_row: dict[int, int] = {}
    for k, i in enumerate(slack_rows):
        tab[i, n + k] = 1.0
        basis[i] = n + k
    for k, i in enumerate(surp_rows):
        tab[i, n + ns + k] = -1.0
    for k, i in enumerate(art_rows):
        tab[i, art_start + k] = 1.0
        basis[i] = art_start + k
        art_of_row[i] = art_start + k

    if na:
        # Phase 1: minimize the artificial sum.
        tab[-1, art_start:art_start + na] = 1.0
        for i in art_rows:
            tab[-1] -= tab[i]
        status = _run_simplex(tab, basis)
        if status != "optimal":
            raise RuntimeError(f"phase 1 ended {status}")
        infeas = -tab[-1, -1]
        if infeas > FEAS_TOL:
            art_vals = {bv: tab[k, -1] for k, bv in enumerate(basis) if bv >= art_start}
            residuals = []
            for i in art_rows:
                r = art_vals.get(art_of_row[i], 0.0)
                if r > FEAS_TOL:
                    residuals.append((tags[i], float(r)))
            residuals.sort(key=lambda kv: -kv[1])
            return LpSolution(status="infeasible", violations=tuple(residuals))
        # Drive surviving artificials out of the basis, dropping redundant rows.
        drop = []
        for k in range(m):
            if basis[k] < art_start:
                continue
            pivcols = np.nonzero(np.abs(tab[k, :art_start]) > 1e-9)[0]
            if pivcols.size:
                enter = int(pivcols[0])
                piv = tab[k, enter]
                tab[k] /= piv
                colvec = tab[:, enter].copy()
                colvec[k] = 0.0
                tab -= np.outer(colvec, tab[k])
                basis[k] = enter
            else:
                drop.append(k)
        if drop:
            tab = np.delete(tab, drop, axis=0)
            basis = [bv for k, bv in enumerate(basis) if k not in set(drop)]
            m = len(basis)

    tab = np.delete(tab, np.s_[art_start:art_start + na], axis=1)
    nu = art_start
    cost = np.zeros(nu + 1)
    for v, coef in p.objective.items():
        cost[idx[v]] += coef
    tab[-1] = cost
    for k, bv in enumerate(basis):
        if cost[bv] != 0.0:
            tab[-1] -= cost[bv] * tab[k]
    status = _run_simplex(tab, basis)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    y = np.zeros(nu)
    for k, bv in enumerate(basis):
        y[bv] = tab[k, -1]
    x = lb + y[:n]
    values = {v: float(x[j]) for j, v in enumerate(names)}
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


@dataclass(frozen=True)
class CollapsedRow:
    """Binding representative of all constraints sharing one lhs shape."""

    support: tuple[int, ...]
    kind: str  # "setup" or "hold"
    t_coef: float  # slope of the combined timing term on this segment
    rhs: float  # rhs constant with the affine intercept folded in
    source: str  # connection key of the binding member


def _collapse(tcs: TimingConstraintSet, seg: SegmentRestriction, cfg: OptimizationConfig):
    best: dict[tuple, CollapsedRow] = {}
    for tc in tcs.constraints:
        if tc.kind == "setup":
            slope, intercept = seg.fs_affine(tc.src_cell, tc.dst_cell)
        else:
            slope, intercept = seg.fh_affine(tc.src_cell, tc.dst_cell, cfg.hold_mode)
        rhs = tc.rhs + intercept
        key = (tc.delta_rows, tc.kind, slope)
        cur = best.get(key)
        if cur is None or (rhs > cur.rhs if tc.kind == "setup" else rhs < cur.rhs):
            best[key] = CollapsedRow(
                support=tc.delta_rows, kind=tc.kind, t_coef=slope, rhs=rhs, source=tc.key
            )
    return [best[k] for k in sorted(best, key=lambda k: (k[0], k[1], k[2]))]


# ---------------------------------------------------------------------------
# Per-segment staged solving (LP path)

_STAGE_VECTORS = {"period": {"T": 1.0}, "latency": {"L": 1.0}, "slack": {"S": -1.0}}


def _weighted_vector(cfg: OptimizationConfig) -> dict[str, float]:
    return {"T": cfg.tau, "S": -cfg.sigma, "L": cfg.lam}


@dataclass
class SegmentOutcome:
    segment: SegmentRestriction
    status: str
    stage_values: tuple[float, ...] = ()
    values: dict[str, float] = field(default_factory=dict)
    violations: tuple[tuple[Optional[str], float], ...] = ()
    explain: str = "phase-1 residual {v:.6g} ps"  # formats one violation value


def _build_segment_lp(
    rows, tcs: TimingConstraintSet, seg: SegmentRestriction, cfg: OptimizationConfig
) -> LpProblem:
    lp = LpProblem()
    nd = tcs.num_deltas
    for r in range(nd):
        lp.add_variable(f"delta_{r}", 0.0, cfg.delta_max)
    lp.add_variable("T", seg.t_lo, seg.t_hi)
    lp.add_variable("S", cfg.s_min, cfg.s_max)
    lp.add_variable("L", 0.0, nd * cfg.delta_max if nd else 0.0)
    for row in rows:
        terms = {f"delta_{r}": 1.0 for r in row.support}
        terms["T"] = -row.t_coef
        terms["S"] = -1.0 if row.kind == "setup" else 1.0
        lp.add_constraint(terms, ">=" if row.kind == "setup" else "<=", row.rhs,
                          tag=f"{row.kind}:{row.source}")
    lat = {f"delta_{r}": -1.0 for r in range(nd)}
    lat["L"] = 1.0
    lp.add_constraint(lat, "=", 0.0, tag="latency")
    return lp


def _staged_lp_solve(
    rows,
    tcs: TimingConstraintSet,
    seg: SegmentRestriction,
    cfg: OptimizationConfig,
    stages: list[tuple[str, dict[str, float]]],
) -> SegmentOutcome:
    """Optimize the stage criteria in order, fixing each within FIX_TOL.

    Criteria that are plain variables are fixed by tightening their bounds;
    the weighted combination is fixed with one extra row.
    """
    lp = _build_segment_lp(rows, tcs, seg, cfg)
    stage_values = []
    sol: Optional[LpSolution] = None
    for name, vec in stages:
        lp.set_objective(vec)
        nxt = lp_solve(lp)
        if nxt.status != "optimal":
            if sol is None:
                return SegmentOutcome(
                    segment=seg, status=nxt.status, violations=nxt.violations
                )
            log.warning("stage %s on segment %d ended %s; keeping previous stage", name, seg.index, nxt.status)
            break
        sol = nxt
        stage_values.append(float(nxt.objective))
        if name in ("period", "latency", "slack"):
            var = {"period": "T", "latency": "L", "slack": "S"}[name]
            v = nxt.values[var]
            lo, hi = lp.variables[var]
            lp.variables[var] = (max(lo, v - FIX_TOL), min(hi if hi is not None else v + FIX_TOL, v + FIX_TOL))
        else:
            lp.add_constraint(dict(vec), "<=", float(nxt.objective) + FIX_TOL, tag=f"fix:{name}")
    assert sol is not None
    return SegmentOutcome(
        segment=seg, status="optimal", stage_values=tuple(stage_values), values=dict(sol.values)
    )


# ---------------------------------------------------------------------------
# Period-first lexicographic solving (difference constraints)

#: Gain a longest-path relaxation must exceed to count (ps). A cycle whose
#: weight stays within it counts as zero, so every Newton step strictly
#: raises the period or lowers the slack.
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
            m, k = row.support[0], row.support[-1] + 1
            tag = f"{row.kind}:{row.source}"
            if row.kind == "setup":
                self.edges.append((m, k, row.t_coef, 1.0, row.rhs, tag))
            else:
                self.edges.append((k, m, -row.t_coef, 1.0, -row.rhs, tag))

    def longest_paths(self, t: float, s: float):
        """Distances at (t, s), or the positive cycles (edge-index lists) found.

        Gauss-Seidel Bellman-Ford: a sweep up the rows over upward edges,
        then a sweep down over downward edges, with a check of the parent
        graph for cycles after each pair of sweeps.
        """
        n = self.n
        up: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        down: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        w = []
        for e, (i, j, a, b, c, _) in enumerate(self.edges):
            (up if i < j else down)[j].append((i, e))
            w.append(a * t + b * s + c)
        dist = [0.0] * n  # a lower bound: every node is reachable from 0 at weight >= 0
        parent = [-1] * n
        sweeps = ((range(n), up), (range(n - 1, -1, -1), down))
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
                return dist, []
            cycles = self._parent_cycles(parent)
            if cycles:
                return None, cycles
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

    def weight(self, cycle: list[int], t: float, s: float, param: str) -> tuple[float, float]:
        """Cycle weight as slope and intercept in ``param`` ("T" or "S")."""
        ta = sum(self.edges[e][2] for e in cycle)
        sa = sum(self.edges[e][3] for e in cycle)
        c = sum(self.edges[e][4] for e in cycle)
        return (ta, sa * s + c) if param == "T" else (sa, ta * t + c)


def _newton(g: _ConstraintGraph, t: float, s: float, param: str, limit: float):
    """Raise T (or lower S) from its start to the first point with no positive cycle.

    Each positive cycle's weight is affine in the moving parameter; jumping
    to the farthest root among the cycles found is Newton's method on the
    convex piecewise-linear maximum cycle weight. Returns ``(value, dist,
    None)``, or ``(value, None, violations)`` when a cycle stays positive up
    to ``limit``; the violations tag that cycle's constraints with its
    weight at ``limit``.
    """
    sign = 1.0 if param == "T" else -1.0
    while True:
        x = t if param == "T" else s
        dist, cycles = g.longest_paths(t, s)
        if not cycles:
            return x, dist, None
        best = None
        for cycle in cycles:
            slope, icpt = g.weight(cycle, t, s, param)
            root = -icpt / slope if slope * sign < 0 else math.inf * sign
            if best is None or (root - best[0]) * sign > 0:
                best = (root, cycle, slope * limit + icpt)
        root, cycle, excess = best
        if (root - limit) * sign > 0:
            tags = dict.fromkeys(g.edges[e][5] for e in cycle if g.edges[e][5])
            return x, None, tuple((tag, excess) for tag in tags)
        if (root - x) * sign <= 0:
            raise RuntimeError(f"positive cycle does not move {param} off {x!r}")
        if param == "T":
            t = root
        else:
            s = root


def _difference_solve(
    rows, tcs: TimingConstraintSet, seg: SegmentRestriction, cfg: OptimizationConfig
) -> SegmentOutcome:
    """Exact ``period,latency,slack`` or ``period,slack,latency`` solve.

    Period: Newton on T from ``t_lo`` at ``s_min``, where every constraint is
    loosest. Latency: the longest-path distance of the last row. Slack:
    Newton on S down from ``s_max``, under a cap edge that holds the latency
    to its optimum when latency ranks above slack.
    """
    g = _ConstraintGraph(rows, tcs.num_deltas + 1, cfg.delta_max)
    t_star, dist, violations = _newton(g, seg.t_lo, cfg.s_min, "T", seg.t_hi)
    if violations is not None:
        return SegmentOutcome(
            segment=seg,
            status="infeasible",
            violations=violations,
            explain=f"on a positive cycle: weight {{v:.6g}} ps at period {seg.t_hi:.6g} ps",
        )
    s_star = cfg.s_min
    if cfg.priority[1] == "latency":
        l_star = dist[-1]
        g.edges.append((g.n - 1, 0, 0.0, 0.0, -(l_star + FIX_TOL), None))
    s_found, dist_s, _ = _newton(g, t_star, cfg.s_max, "S", cfg.s_min)
    if dist_s is not None:  # s_min is feasible, so only rounding can fail here
        s_star, dist = max(cfg.s_min, s_found), dist_s
    deltas = [min(cfg.delta_max, max(0.0, dist[r + 1] - dist[r])) for r in range(g.n - 1)]
    latency = float(sum(deltas))
    if cfg.priority[1] == "latency":
        stage_values = (t_star, l_star, -s_star)
    else:
        stage_values = (t_star, -s_star, latency)
    values = {f"delta_{r}": d for r, d in enumerate(deltas)}
    values.update({"T": t_star, "S": s_star, "L": latency})
    return SegmentOutcome(segment=seg, status="optimal", stage_values=stage_values, values=values)


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
    rows = _collapse(tcs, seg, cfg)
    if cfg.priority_mode == "lexicographic":
        if cfg.priority[0] == "period":
            return _difference_solve(rows, tcs, seg, cfg)
        stages = [(name, _STAGE_VECTORS[name]) for name in cfg.priority]
        return _staged_lp_solve(rows, tcs, seg, cfg, stages)
    stages = [("weighted", _weighted_vector(cfg))] + [
        (name, _STAGE_VECTORS[name]) for name in ("period", "latency", "slack")
    ]
    return _staged_lp_solve(rows, tcs, seg, cfg, stages)


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
    rule. When every segment is infeasible the error names the constraints
    behind the least-violating segment: its largest phase-1 residuals, or
    the positive cycle that keeps the period stage infeasible.
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
            Diagnostic("INFEASIBLE", tag or "bounds", worst.explain.format(v=v))
            for tag, v in worst.violations[:5]
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
