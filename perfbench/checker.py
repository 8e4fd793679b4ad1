"""Independent checker for aqfpopt schedule reports.

This module shares no code with ``src/aqfpopt``: it reads the raw circuit,
library and report JSON files and re-derives everything it checks.

``check_report`` runs four groups of checks and returns one message per
failure, each starting with a code (an empty list means the report passed):

1. Slacks. Every connection's setup and hold slack is recomputed from the
   gates' clock offsets, the report's row deltas and a piecewise-linear
   evaluation of the cell timing at the reported period. A slack below
   ``SLACK_TOL`` below zero, or any non-finite value, fails (``SLACK``,
   ``NONFINITE``), and so does a minimum below the solved uniform slack
   (``SLACK_BELOW_SOLVED``).
2. Buffer removal (only when removal was requested). The removed buffers are
   inferred from the report's connection list. Each merged connection is
   rebuilt from its original hops plus one buffer length per removed buffer
   and must respect the drive limit and ``max_skip``. The removed count must
   equal the optimum of an exhaustive per-chain subset enumeration
   (``REMOVAL_*``, ``BUFFER_COUNT``).
3. Period. A longest-path system over the row prefixes P_r (P_0 = 0) shows
   the reported period feasible at ``s_min``. In lexicographic mode the
   period must also equal the library's lower period bound, or the system
   must be infeasible ``PERIOD_MARGIN`` ps below it (``PERIOD_*``).
4. Objective. Lexicographic: the reported latency equals the system's
   minimum latency within ``latency_tolerance``. Weighted: the reported
   weighted objective is no worse than its value at the checker's own
   (T_min, s_min, L_min) point (``LATENCY_NOT_MINIMAL``,
   ``OBJECTIVE_NOT_OPTIMAL``).

The difference-constraint system: for a connection from row m to row n with
propagation delay p and base clock difference d = offset(dst) - offset(src),
setup gives P_n - P_m >= c2q(T) + setup(T) + S + (p - d) and hold gives
P_n - P_m <= c2q(T) + rd(T) - hold(T) - S + (p - d); row bounds give
0 <= P_{r+1} - P_r <= delta_max. Longest-path distances from node 0 are the
componentwise smallest solution, so the distance of the last row is the
minimum latency, and a positive cycle means the period is infeasible.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

#: A slack below -SLACK_TOL ps fails.
SLACK_TOL = 1e-6
#: Report fields that restate another field must agree within this (ps).
ECHO_TOL = 1e-6
#: Lexicographic periods must be infeasible this far (ps) below the reported one.
PERIOD_MARGIN = 1e-3
#: Relaxations smaller than this (ps) count as converged in Bellman-Ford.
RELAX_EPS = 1e-9
#: Weighted-mode objective tolerance.
OBJECTIVE_TOL = 1e-6
#: Row-delta upper bound the optimizer applies (ps); OptimizationConfig default.
DELTA_MAX = 10000.0
BUFFER_CELL = "buffer"
#: Grid points per level of the weighted-mode minimum-period search.
GRID_POINTS = 33
GRID_LEVELS = 5


def latency_tolerance(num_rows: int) -> float:
    """Latency agreement bound (ps): the feasibility check relaxes S by
    SLACK_TOL, which can lower the minimum latency by SLACK_TOL per row."""
    return 1e-3 + SLACK_TOL * num_rows


class CheckError(Exception):
    """A document is unusable; the message starts with the failure code."""


def _reject_constant(token):
    raise CheckError(f"NONFINITE: JSON token {token} is not a finite number")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise CheckError(f"NONFINITE: number {text} overflows to {value}")
    return value


def load_strict(text: str, what: str) -> dict:
    """Parse JSON, rejecting NaN/Infinity tokens and overflowing numbers."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except CheckError as e:
        raise CheckError(f"{e} (in the {what})") from None
    except json.JSONDecodeError as e:
        raise CheckError(f"PARSE: {what} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise CheckError(f"PARSE: {what} top level is not an object")
    return doc


# ---------------------------------------------------------------------------
# Library evaluation


class Library:
    def __init__(self, doc: dict):
        self.bps = np.asarray(doc["breakpoints_ps"], dtype=float)
        self.names = sorted(doc["cells"])
        self.index = {name: i for i, name in enumerate(self.names)}
        self.fns = {}
        for fname in ("c2q", "setup", "hold", "rd"):
            table = np.asarray([doc["cells"][n][fname] for n in self.names], dtype=float)
            self.fns[fname] = (table[:, :, 0], table[:, :, 1])  # (cells, segments)
        self.l_max_drive = float(doc["l_max_drive_um"])
        self.l_buffer = float(doc["l_buffer_um"])
        self.prop_per_um = float(doc["prop_ps_per_um"])
        self.t_max = float(doc["t_max_ps"])
        self.period_lo = max(float(doc["t_min_ps"]), 1000.0 / float(doc["max_frequency_ghz"]))

    def segment(self, t: np.ndarray) -> np.ndarray:
        """Segment owning each period; a breakpoint belongs to the lower segment."""
        nseg = len(self.bps) - 1
        return np.clip(np.searchsorted(self.bps, t, side="left") - 1, 0, nseg - 1)

    def eval(self, fname: str, cells: np.ndarray, t: np.ndarray) -> np.ndarray:
        """fname of each cell at each period: shape (len(t), len(cells))."""
        slopes, intercepts = self.fns[fname]
        seg = self.segment(t)[:, None]
        return slopes[cells[None, :], seg] * t[:, None] + intercepts[cells[None, :], seg]


# ---------------------------------------------------------------------------
# Connections after buffer removal


class Net:
    """Connection arrays: source/sink gate index, rows and propagation delay."""

    def __init__(self, keys, props, gate_index, gate_row):
        self.keys = list(keys)
        self.src = np.asarray([gate_index[s] for s, _ in keys], dtype=np.int64)
        self.dst = np.asarray([gate_index[d] for _, d in keys], dtype=np.int64)
        self.prop = np.asarray(props, dtype=float)
        self.src_row = gate_row[self.src]
        self.dst_row = gate_row[self.dst]


def _find_chains(gates: dict, conns: list) -> list:
    """Maximal runs of single-fanin/single-fanout buffers: (nodes, hops)."""
    fanin: dict[str, list] = {g: [] for g in gates}
    fanout: dict[str, list] = {g: [] for g in gates}
    for k in conns:
        fanout[k["src"]].append(k)
        fanin[k["dst"]].append(k)
    linkable = {
        g for g, (cell, _, _) in gates.items()
        if cell == BUFFER_CELL and len(fanin[g]) == 1 and len(fanout[g]) == 1
    }
    chains = []
    for g in gates:
        if g not in linkable or fanin[g][0]["src"] in linkable:
            continue
        nodes, hops = [fanin[g][0]["src"]], [fanin[g][0]]
        cur = g
        while cur in linkable:
            nodes.append(cur)
            hops.append(fanout[cur][0])
            cur = fanout[cur][0]["dst"]
        nodes.append(cur)
        chains.append((nodes, hops))
    return chains


def _hop_length(hops, a: int, b: int, lib: Library) -> float:
    return sum(float(h["length_um"]) for h in hops[a:b]) + (b - a - 1) * lib.l_buffer


def _hop_prop(hops, a: int, b: int, lib: Library) -> float:
    """Delay of the route from node a to node b with the buffers between removed."""
    if all("prop_ps" in h for h in hops[a:b]):
        return sum(float(h["prop_ps"]) for h in hops[a:b]) + (b - a - 1) * lib.l_buffer * lib.prop_per_um
    return _hop_length(hops, a, b, lib) * lib.prop_per_um


def _best_removal(nodes, hops, rows, lib: Library, max_skip: int) -> int:
    """Most buffers removable from one chain, by enumerating every subset."""
    m = len(nodes) - 2
    best = 0
    for removed in itertools.product((False, True), repeat=m):
        kept = [0] + [j + 1 for j in range(m) if not removed[j]] + [m + 1]
        if all(
            _hop_length(hops, a, b, lib) <= lib.l_max_drive and rows[nodes[b]] - rows[nodes[a]] <= max_skip
            for a, b in zip(kept, kept[1:])
        ):
            best = max(best, sum(removed))
    return best


def effective_connections(circuit: dict, report: dict, lib: Library, spec: dict, fails: list):
    """The connection list the schedule must close timing on, with delays.

    Without removal it is the circuit's own list. With removal, a chain
    buffer that no reported connection touches was removed; each run of
    removed buffers becomes one merged connection.
    """
    gates = {g["id"]: (g["cell"], int(g["row"]), float(g["clock_offset_ps"])) for g in circuit["gates"]}
    rows = {g: r for g, (_, r, _) in gates.items()}
    conns = circuit["connections"]

    def own_prop(k):
        return float(k["prop_ps"]) if "prop_ps" in k else float(k["length_um"]) * lib.prop_per_um

    expected = {(k["src"], k["dst"]): own_prop(k) for k in conns}
    if len(expected) != len(conns):
        fails.append("CIRCUIT: duplicate connection in the circuit file")
    reported = [(e["src"], e["dst"]) for e in report["connections"]]
    touched = {g for key in reported for g in key}

    total = removed = optimum = 0
    if spec["remove_buffers"]:
        for nodes, hops in _find_chains(gates, conns):
            m = len(nodes) - 2
            total += m
            kept = [0] + [j for j in range(1, m + 1) if nodes[j] in touched] + [m + 1]
            removed += m + 2 - len(kept)
            optimum += _best_removal(nodes, hops, rows, lib, spec["max_skip"])
            for a, b in zip(kept, kept[1:]):
                if b == a + 1:
                    continue
                for h in hops[a:b]:
                    del expected[(h["src"], h["dst"])]
                length = _hop_length(hops, a, b, lib)
                key = (nodes[a], nodes[b])
                if length > lib.l_max_drive:
                    fails.append(f"REMOVAL_ILLEGAL: {key[0]}->{key[1]} merged length {length:.6g} um "
                                 f"exceeds l_max_drive {lib.l_max_drive} um")
                expected[key] = _hop_prop(hops, a, b, lib)
    if report["buffers_total"] != total:
        fails.append(f"BUFFER_COUNT: report says {report['buffers_total']} buffers in chains, checker finds {total}")
    if report["buffers_removed"] != removed:
        fails.append(f"BUFFER_COUNT: report says {report['buffers_removed']} removed, "
                     f"its connection list removes {removed}")
    if removed != optimum or report["buffers_removed"] != optimum:
        fails.append(f"REMOVAL_NOT_OPTIMAL: {removed} buffers removed, exhaustive optimum is {optimum}")

    if len(set(reported)) != len(reported):
        fails.append("CONNECTIONS: the report lists a connection twice")
    missing = set(expected) - set(reported)
    extra = set(reported) - set(expected)
    if missing or extra:
        sample = sorted(missing)[:2] + sorted(extra)[:2]
        fails.append(f"CONNECTIONS: {len(missing)} expected connections missing, {len(extra)} unexpected, e.g. {sample}")
    keys = [k for k in reported if k in expected]
    index = {g: i for i, g in enumerate(gates)}
    gate_row = np.asarray([r for _, r, _ in gates.values()], dtype=np.int64)
    net = Net(keys, [expected[k] for k in keys], index, gate_row)
    span = net.dst_row - net.src_row
    if (span < 1).any() or (span > spec["max_skip"]).any():
        fails.append(f"SPAN: {int(((span < 1) | (span > spec['max_skip'])).sum())} connections span "
                     f"outside 1..{spec['max_skip']} rows")
    cells = np.asarray([lib.index.get(c, -1) for c, _, _ in gates.values()], dtype=np.int64)
    if (cells < 0).any():
        raise CheckError("CIRCUIT: a gate uses a cell the library does not define")
    offsets = np.asarray([o for _, _, o in gates.values()], dtype=float)
    return net, cells, offsets, {"buffers_total": total, "buffers_removed": removed, "removal_optimum": optimum}


# ---------------------------------------------------------------------------
# Difference-constraint system over row prefixes


class PrefixSystem:
    """Longest paths over P_0..P_{rows-1}, vectorised over several periods."""

    def __init__(self, net: Net, cells, offsets, lib: Library, num_rows: int, delta_max: float):
        self.lib = lib
        self.n = num_rows
        r = np.arange(num_rows - 1)
        m, n = net.src_row, net.dst_row
        self.src_cell, self.dst_cell = cells[net.src], cells[net.dst]
        self.x = net.prop - (offsets[net.dst] - offsets[net.src])
        src = np.concatenate([m, n, r, r + 1])
        dst = np.concatenate([n, m, r + 1, r])
        self.row_w = np.concatenate([np.zeros(num_rows - 1), np.full(num_rows - 1, -delta_max)])
        self.order = np.argsort(dst, kind="stable")
        self.src_sorted = src[self.order]
        dst_sorted = dst[self.order]
        self.starts = np.flatnonzero(np.r_[True, dst_sorted[1:] != dst_sorted[:-1]])
        self.heads = dst_sorted[self.starts]

    def weights(self, t: np.ndarray, s: float) -> np.ndarray:
        lib = self.lib
        c2q = lib.eval("c2q", self.src_cell, t)
        setup = c2q + lib.eval("setup", self.dst_cell, t) + s + self.x
        hold = -(c2q + lib.eval("rd", self.src_cell, t) - lib.eval("hold", self.dst_cell, t) - s + self.x)
        rows = np.broadcast_to(self.row_w, (len(t), len(self.row_w)))
        return np.concatenate([setup, hold, rows], axis=1)[:, self.order]

    def solve(self, t, s: float):
        """(feasible per period, minimum P_last per period)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        w = self.weights(t, s)
        dist = np.full((len(t), self.n), -np.inf)
        dist[:, 0] = 0.0
        for _ in range(self.n + 1):
            cand = np.maximum.reduceat(dist[:, self.src_sorted] + w, self.starts, axis=1)
            new = np.maximum(dist[:, self.heads], cand)
            changed = (new > dist[:, self.heads] + RELAX_EPS).any(axis=1)
            dist[:, self.heads] = new
            if not changed.any():
                break
        return ~changed, dist[:, -1]

    def min_period(self, s: float):
        """A feasible period at most ~1e-5 ps above the smallest one, by grid
        refinement over the library range; None when no period is feasible.

        The refinement assumes feasibility is monotone in the period.
        """
        lo, hi = self.lib.period_lo, self.lib.t_max
        feas, _ = self.solve([lo, hi], s)
        if feas[0]:
            return lo
        if not feas[1]:
            return None
        for _ in range(GRID_LEVELS):
            grid = np.linspace(lo, hi, GRID_POINTS)
            feas, _ = self.solve(grid, s)
            k = int(np.argmax(feas))
            lo, hi = grid[k - 1], grid[k]
        return float(hi)


# ---------------------------------------------------------------------------
# The check


def check_report(circuit_text: str, library_text: str, report_text: str, spec: dict):
    """Check one report; returns (failures, facts).

    ``spec`` holds ``mode`` ("lexicographic" or "weighted"), ``s_min``,
    ``s_max``, ``max_skip``, ``remove_buffers`` and, in weighted mode,
    ``tau``, ``sigma`` and ``lam``. Lexicographic mode assumes the default
    period, latency, slack priority.
    """
    fails: list[str] = []
    try:
        circuit = load_strict(circuit_text, "circuit")
        lib = Library(load_strict(library_text, "library"))
        report = load_strict(report_text, "report")
        facts = _check(circuit, lib, report, spec, fails)
    except CheckError as e:
        return fails + [str(e)], {}
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as e:
        return fails + [f"PARSE: malformed document ({type(e).__name__}: {e})"], {}
    return fails, facts


def _check(circuit: dict, lib: Library, report: dict, spec: dict, fails: list) -> dict:
    num_rows = int(circuit["num_rows"])
    period = float(report["period_ps"])
    deltas = np.asarray(report["row_deltas_ps"], dtype=float)
    latency, slack = float(report["latency_ps"]), float(report["slack_ps"])
    if len(deltas) != num_rows - 1:
        raise CheckError(f"ROW_DELTAS: {len(deltas)} row deltas for {num_rows} rows")
    if not lib.bps[0] < period <= lib.bps[-1]:
        raise CheckError(f"PERIOD_RANGE: period {period} ps outside the library breakpoints")
    if not lib.period_lo - ECHO_TOL <= period <= lib.t_max + ECHO_TOL:
        fails.append(f"PERIOD_RANGE: period {period} ps outside [{lib.period_lo}, {lib.t_max}]")
    if abs(float(report["frequency_ghz"]) - 1000.0 / period) > 1e-9 * 1000.0 / period:
        fails.append("ECHO: frequency_ghz is not 1000 / period_ps")
    if (deltas < -ECHO_TOL).any() or (deltas > DELTA_MAX + ECHO_TOL).any():
        fails.append(f"ROW_DELTAS: a row delta lies outside [0, {DELTA_MAX}] ps")
    if abs(latency - float(deltas.sum())) > ECHO_TOL:
        fails.append(f"ECHO: latency_ps {latency} differs from the row-delta sum {float(deltas.sum())}")
    if not spec["s_min"] - ECHO_TOL <= slack <= spec["s_max"] + ECHO_TOL:
        fails.append(f"SLACK_RANGE: solved slack {slack} ps outside [{spec['s_min']}, {spec['s_max']}]")
    config = report.get("manifest", {}).get("config", {})
    if config and (config.get("priority_mode") != spec["mode"]
                   or bool(config.get("remove_buffers")) != spec["remove_buffers"]):
        fails.append("CONFIG: the report manifest records another optimizer configuration")

    net, cells, offsets, facts = effective_connections(circuit, report, lib, spec, fails)

    # 1. Slacks recomputed from the raw inequalities.
    t = np.asarray([period])
    prefix = np.concatenate([[0.0], np.cumsum(deltas)])
    clk_src = offsets[net.src] + prefix[net.src_row]
    clk_dst = offsets[net.dst] + prefix[net.dst_row]
    c2q = lib.eval("c2q", cells[net.src], t)[0]
    arrival = clk_src + c2q + net.prop
    setup = clk_dst - lib.eval("setup", cells[net.dst], t)[0] - arrival
    hold = arrival + lib.eval("rd", cells[net.src], t)[0] - clk_dst - lib.eval("hold", cells[net.dst], t)[0]
    both = np.concatenate([setup, hold])
    if not np.isfinite(both).all():
        fails.append("NONFINITE: a recomputed slack is not finite")
    bad = np.flatnonzero(np.minimum(setup, hold) < -SLACK_TOL)
    if bad.size:
        k = int(bad[0])
        fails.append(f"SLACK: {bad.size} connections violate setup or hold, e.g. {net.keys[k][0]}->{net.keys[k][1]} "
                     f"setup {setup[k]:.6g} ps, hold {hold[k]:.6g} ps")
    if both.size:
        worst = float(both.min())
        facts["min_slack_ps"] = worst
        if report["min_slack_ps"] is None or abs(float(report["min_slack_ps"]) - worst) > ECHO_TOL:
            fails.append(f"ECHO: min_slack_ps {report['min_slack_ps']} differs from the recomputed {worst:.9g}")
        if worst < slack - SLACK_TOL:
            fails.append(f"SLACK_BELOW_SOLVED: recomputed minimum slack {worst:.9g} ps is below the solved slack {slack:.9g} ps")
        listed = {(e["src"], e["dst"]): (e["setup_slack_ps"], e["hold_slack_ps"]) for e in report["connections"]}
        got = np.asarray([listed[k] for k in net.keys], dtype=float).reshape(-1, 2)
        if np.abs(got - np.stack([setup, hold], axis=1)).max(initial=0.0) > ECHO_TOL:
            fails.append("ECHO: a reported connection slack differs from the recomputed one")

    # 2. Longest-path system over the row prefixes.
    system = PrefixSystem(net, cells, offsets, lib, num_rows, DELTA_MAX)
    s_min = spec["s_min"]
    feasible, last = system.solve([period], s_min - SLACK_TOL)
    if not feasible[0]:
        fails.append(f"PERIOD_INFEASIBLE: no schedule exists at period {period} ps and slack {s_min} ps")
    l_min = float(last[0])
    facts.update(period_ps=period, latency_ps=latency, latency_min_ps=l_min)

    if spec["mode"] == "lexicographic":
        if period > lib.period_lo + ECHO_TOL:
            below, _ = system.solve([period - PERIOD_MARGIN], s_min)
            if below[0]:
                fails.append(f"PERIOD_NOT_MINIMAL: period {period - PERIOD_MARGIN} ps is also feasible")
        if feasible[0] and not -ECHO_TOL <= latency - l_min <= latency_tolerance(num_rows):
            fails.append(f"LATENCY_NOT_MINIMAL: latency {latency:.9g} ps, minimum at this period {l_min:.9g} ps")
    else:
        t_ref = system.min_period(s_min)
        if t_ref is None:
            fails.append("PERIOD_INFEASIBLE: the checker finds no feasible period in the library range")
        else:
            _, l_ref = system.solve([t_ref], s_min)
            ref = spec["tau"] * t_ref - spec["sigma"] * s_min + spec["lam"] * float(l_ref[0])
            got = spec["tau"] * period - spec["sigma"] * slack + spec["lam"] * latency
            facts.update(t_min_ps=t_ref, objective=got, objective_ref=ref)
            if got > ref + OBJECTIVE_TOL:
                fails.append(f"OBJECTIVE_NOT_OPTIMAL: weighted objective {got:.9g} exceeds {ref:.9g} "
                             f"at the checker's point T={t_ref:.6f} ps")
    return facts
