import itertools
import json
import random
import re

import pytest

from scipy.optimize import linprog

from conftest import BP2, const_fn, make_library
from oracles import grid_min_period, min_latency_at, segment_lp_oracle
from aqfpopt import solver
from aqfpopt.bufferopt import remove_buffers
from aqfpopt.cli import generate_circuit, main
from aqfpopt.ingest import serialize_circuit, serialize_library
from aqfpopt.model import (
    CellTiming,
    Circuit,
    Connection,
    Gate,
    OptimizationConfig,
    PiecewiseLinear,
)
from aqfpopt.solver import (
    Cut,
    InfeasibleScheduleError,
    Master,
    SegmentRestriction,
    SolverBreakdown,
    _certificate,
    lp_solve,
    optimize_schedule,
    segment_restrictions,
)
from aqfpopt.timing import build_constraints, sta_check


def master(bounds, rows=(), objective=(0.0, 0.0, 0.0)):
    """A master over boxed (T, S, L) with ``<=`` rows (t, s, l, rhs[, conns])."""
    return Master(bounds, objective, [Cut(*row) for row in rows])


def highs(m):
    """SciPy's HiGHS on the same master: (status, objective)."""
    res = linprog(m.objective, A_ub=[c[:3] for c in m.constraints] or None,
                  b_ub=[c.rhs for c in m.constraints] or None, bounds=m.bounds, method="highs")
    return res.status, res.fun


class TestLpSolve:
    def test_simple_maximization(self):
        m = master(((0.0, 1e6), (0.0, 0.0), (0.0, 0.0)), [(1.0, 0.0, 0.0, 3.0)], objective=(-1.0, 0.0, 0.0))
        assert lp_solve(m) == pytest.approx((3.0, 0.0, 0.0))

    def test_infeasible_box(self):
        # Cycle-shaped cuts T >= 2 + S and T <= 1 - S leave no period at S = 0;
        # at T = 1.5 both weigh 0.5 ps, and no period does better.
        m = master(((0.0, 10.0), (0.0, 5.0), (0.0, 0.0)),
                   [(-1.0, 1.0, 0.0, -2.0, ("lo",)), (1.0, 1.0, 0.0, 1.0, ("hi",))])
        cert = _certificate(m)
        assert cert.cycles == (("lo",), ("hi",))
        assert cert.excess == pytest.approx(0.5)
        with pytest.raises(SolverBreakdown):
            lp_solve(m)

    def test_two_variable_vertex(self):
        # x + 2y >= 4 and 3x + y >= 6, minimizing x + y: the rows cross at (1.6, 1.2).
        m = master(((0.0, 1e6), (0.0, 1e6), (0.0, 0.0)), [(-1.0, -2.0, 0.0, -4.0), (-3.0, -1.0, 0.0, -6.0)],
                   objective=(1.0, 1.0, 0.0))
        assert lp_solve(m) == pytest.approx((1.6, 1.2, 0.0))

    def test_deterministic(self):
        def build():
            return master(((0.0, 10.0),) * 3, [(-1.0, -1.0, -1.0, -5.0), (1.0, -1.0, 0.0, 2.0)],
                          objective=(1.0, 1.0, 1.0))

        assert lp_solve(build()) == lp_solve(build())

    def test_random_boxed_lps_match_highs(self):
        rng = random.Random(99)
        statuses = []
        for trial in range(200):
            bounds = []
            for _ in range(3):
                lo = rng.uniform(-5, 5)
                bounds.append((lo, lo + rng.choice([0.0, rng.uniform(0, 10)])))
            rows = [tuple(rng.choice([0.0, rng.uniform(-3, 3)]) for _ in range(3)) + (rng.uniform(-3, 9),)
                    for _ in range(rng.randint(0, 6))]
            m = master(tuple(bounds), rows, objective=tuple(rng.uniform(-2, 2) for _ in range(3)))
            status, value = highs(m)
            statuses.append(status)
            if status == 2:
                with pytest.raises(SolverBreakdown):
                    lp_solve(m)
                continue
            assert status == 0
            point = lp_solve(m)
            assert sum(c * x for c, x in zip(m.objective, point)) == pytest.approx(value, abs=1e-6)
            assert all(lo - 1e-9 <= x <= hi + 1e-9 for x, (lo, hi) in zip(point, m.bounds))
            assert all(sum(a * x for a, x in zip(c[:3], point)) <= c.rhs + 1e-7 for c in m.constraints)
        assert 50 <= statuses.count(2) <= 150

    def test_cycle_cut_verdict_matches_highs(self):
        # Cuts shaped like cycle cuts: S coefficient >= 1, no L, and a slope
        # in T that is zero now and then. A sloped cut weighs 0 at
        # (root, s_min) for a root near the segment.
        rng = random.Random(7)
        verdicts = []
        for trial in range(300):
            t_lo = rng.uniform(100, 250)
            t_hi = t_lo + rng.choice([0.0, rng.uniform(0, 150), rng.uniform(0, 150)])
            s_min = rng.uniform(0, 5)
            bounds = ((t_lo, t_hi), (s_min, s_min + rng.uniform(0, 50)), (0.0, 100.0))
            rows = []
            for k in range(rng.randint(1, 5)):
                s = float(rng.randint(1, 4))
                if rng.random() < 0.1:
                    t, rhs = 0.0, s * s_min + rng.uniform(-1, 5)
                else:
                    t = rng.uniform(-1, 1)
                    rhs = t * rng.uniform(t_lo - 20, t_hi + 20) + s * s_min
                rows.append((t, s, 0.0, rhs, (f"cut{k}",)))
            m = master(bounds, rows, objective=(1.0, 0.0, 0.0))
            cert = _certificate(m)
            status, _ = highs(m)
            assert (cert is None) == (status == 0), (trial, cert, status)
            verdicts.append(len(cert.cycles) if cert else 0)
            if cert is None:
                continue
            # The certificate's one or two cuts are positive over the whole
            # segment at s_min, by cert.excess at the least.
            assert cert.excess > 0
            cuts = [c for c in m.constraints if c.conns in cert.cycles]
            grid = [t_lo + (t_hi - t_lo) * i / 400 for i in range(401)]
            weights = [max(c.t * t + c.s * s_min - c.rhs for c in cuts) for t in grid]
            assert min(weights) >= cert.excess - 1e-9
            assert min(weights) <= cert.excess + (t_hi - t_lo) / 400
        assert verdicts.count(0) >= 50 and verdicts.count(1) >= 50 and verdicts.count(2) >= 10


WEIGHTED = OptimizationConfig(priority_mode="weighted", tau=1.0, sigma=1e-6, lam=1e-6)


def wide_spread_circuit():
    """Two connections in one row whose delay spread exceeds the hold window
    everywhere in the fixture library's range (rd(300) - 10 = 98 < 110)."""
    return Circuit(
        name="wide-spread",
        num_rows=2,
        gates=(
            Gate("a1", "majority3", 0, 0.0),
            Gate("a2", "majority3", 0, 0.0),
            Gate("b1", "majority3", 1, 0.0),
            Gate("b2", "majority3", 1, 0.0),
        ),
        connections=(
            Connection("a1", "b1", 1.0, prop=0.0),
            Connection("a2", "b2", 110.0, prop=110.0),
        ),
    )


class TestSolveSegment:
    """Weighted solves of the fixture's segments, through ``optimize_schedule``."""

    def test_upper_segment_weighted_optimum(self, two_row_circuit, fixture_library):
        tcs = build_constraints(two_row_circuit, fixture_library, WEIGHTED)
        segs = segment_restrictions(fixture_library, WEIGHTED)
        assert [(s.index, s.t_lo, s.t_hi) for s in segs] == [(0, 100.0, 100.0), (1, 100.0, 300.0)]
        sched = optimize_schedule(tcs, fixture_library, WEIGHTED)
        assert sched.period == pytest.approx(100.0, abs=1e-4)
        assert sched.row_deltas[0] == pytest.approx(18.0, abs=1e-4)
        assert sched.slack == pytest.approx(0.0, abs=1e-4)
        assert sched.latency == pytest.approx(18.0, abs=1e-4)

    def test_minimum_slack_shifts_delta(self, fixture_library, two_row_circuit):
        cfg = OptimizationConfig(
            priority_mode="weighted", tau=1.0, sigma=1e-6, lam=1e-6, s_min=5.0
        )
        tcs = build_constraints(two_row_circuit, fixture_library, cfg)
        sched = optimize_schedule(tcs, fixture_library, cfg)
        assert sched.period == pytest.approx(100.0, abs=1e-4)
        assert sched.row_deltas[0] == pytest.approx(23.0, abs=1e-4)
        assert sched.slack == pytest.approx(5.0, abs=1e-4)

    def test_spread_beyond_hold_window_is_infeasible(self, fixture_library):
        c = wide_spread_circuit()
        tcs = build_constraints(c, fixture_library, WEIGHTED)
        with pytest.raises(InfeasibleScheduleError) as e:
            optimize_schedule(tcs, fixture_library, WEIGHTED)
        assert e.value.diagnostics
        assert all(d.code == "INFEASIBLE" for d in e.value.diagnostics)


class TestOptimizeSchedule:
    def test_period_first_fixture(self, two_row_circuit, fixture_library):
        cfg = OptimizationConfig()
        tcs = build_constraints(two_row_circuit, fixture_library, cfg)
        sched = optimize_schedule(tcs, fixture_library, cfg)
        assert sched.period == pytest.approx(100.0, abs=1e-6)
        assert sched.latency == pytest.approx(18.0, abs=1e-4)
        assert sched.slack == pytest.approx(0.0, abs=1e-4)
        assert sched.segment_index == 0

    def test_slack_priority_with_cap(self, two_row_circuit, fixture_library):
        cfg = OptimizationConfig(priority=("period", "slack", "latency"), s_max=10.0)
        tcs = build_constraints(two_row_circuit, fixture_library, cfg)
        sched = optimize_schedule(tcs, fixture_library, cfg)
        assert sched.period == pytest.approx(100.0, abs=1e-6)
        assert sched.slack == pytest.approx(10.0, abs=1e-4)
        assert sched.row_deltas[0] == pytest.approx(28.0, abs=1e-4)

    def test_no_connections_vacuous(self, fixture_library):
        c = Circuit(name="one", num_rows=1, gates=(Gate("a", "majority3", 0, 0.0),), connections=())
        cfg = OptimizationConfig()
        tcs = build_constraints(c, fixture_library, cfg)
        sched = optimize_schedule(tcs, fixture_library, cfg)
        assert sched.period == pytest.approx(100.0)
        assert sched.latency == 0.0
        assert sched.slack == pytest.approx(cfg.s_max, abs=1e-4)

    def test_latency_equals_delta_sum(self, ref_lib):
        for seed in range(5):
            c = generate_circuit(rows=6, width=3, seed=seed, skip_prob=0.3, lib=ref_lib)
            cfg = OptimizationConfig()
            tcs = build_constraints(c, ref_lib, cfg)
            sched = optimize_schedule(tcs, ref_lib, cfg)
            assert sched.latency == pytest.approx(sum(sched.row_deltas), abs=1e-9)
            assert all(d >= -1e-12 for d in sched.row_deltas)

    def test_feasibility_certificate(self, ref_lib):
        for seed in range(8):
            c = generate_circuit(rows=7, width=3, seed=seed, skip_prob=0.2, lib=ref_lib)
            cfg = OptimizationConfig(s_min=2.0)
            tcs = build_constraints(c, ref_lib, cfg)
            sched = optimize_schedule(tcs, ref_lib, cfg)
            rep = sta_check(c, ref_lib, sched)
            assert rep.min_slack >= sched.slack - 1e-6

    def test_segment_consistency(self, three_segment_library):
        lib = three_segment_library
        for seed in range(6):
            c = generate_circuit(rows=5, width=3, seed=seed, lib=lib)
            cfg = OptimizationConfig()
            tcs = build_constraints(c, lib, cfg)
            sched = optimize_schedule(tcs, lib, cfg)
            k = sched.segment_index
            seg = SegmentRestriction(index=k, t_lo=0.0, t_hi=0.0, lib=lib)
            t = sched.period
            cells = set(c.gates.cell)
            for src in cells:
                for dst in cells:
                    s, d = lib.timing(src), lib.timing(dst)
                    a, b = seg.fs_affine(src, dst)
                    assert a * t + b == pytest.approx(s.c2q(t) + d.setup(t), abs=1e-9)
                    a, b = seg.fh_affine(src, dst, cfg.hold_mode)
                    assert a * t + b == pytest.approx(s.c2q(t) + s.rd(t) - d.hold(t), abs=1e-9)

    def test_one_lp_pass_per_segment(self, three_segment_library):
        lib = three_segment_library
        cfg = OptimizationConfig(t_min_override=100.0)
        counts = []
        for rows, width in ((3, 2), (8, 4)):
            c = generate_circuit(rows=rows, width=width, seed=1, lib=lib)
            tcs = build_constraints(c, lib, cfg)
            details = {}
            optimize_schedule(tcs, lib, cfg, details=details)
            counts.append(details["segments_solved"])
        assert counts == [3, 3]  # breakpoint intervals only, not circuit size

    def test_infeasible_reports_worst_constraints(self, fixture_library):
        c = Circuit(
            name="bad",
            num_rows=2,
            gates=(Gate("a", "majority3", 0, 0.0), Gate("b", "majority3", 1, 0.0)),
            connections=(
                Connection("a", "b", 1.0, prop=0.0),
                Connection("a", "b", 1.0, prop=0.0),
            ),
        )
        # force an empty period window instead: t_min above t_max
        cfg = OptimizationConfig(t_min_override=500.0)
        tcs = build_constraints(c, fixture_library, cfg)
        with pytest.raises(InfeasibleScheduleError):
            optimize_schedule(tcs, fixture_library, cfg)


class TestAgainstGridOracle:
    def test_period_first_matches_grid(self, three_segment_library):
        lib = three_segment_library
        rng = random.Random(17)
        for trial in range(6):
            c = generate_circuit(
                rows=rng.randint(3, 6),
                width=rng.randint(2, 3),
                seed=rng.randint(0, 10**6),
                skip_prob=0.3,
                lib=lib,
            )
            cfg = OptimizationConfig()
            tcs = build_constraints(c, lib, cfg)
            sched = optimize_schedule(tcs, lib, cfg)
            t_grid, _ = grid_min_period(c, lib, lib.period_lo, lib.t_max, cfg.s_min, step=0.05)
            assert t_grid is not None
            assert abs(sched.period - t_grid) <= 0.1
            l_oracle = min_latency_at(c, lib, sched.period, cfg.s_min)
            assert l_oracle is not None
            assert abs(sched.latency - l_oracle) <= 0.1


class TestModesAgree:
    def test_weighted_matches_lexicographic_period(self, ref_lib):
        for seed in range(6):
            c = generate_circuit(rows=6, width=3, seed=seed, skip_prob=0.2, lib=ref_lib)
            lex = OptimizationConfig()
            wei = OptimizationConfig(priority_mode="weighted", tau=1.0, lam=1e-4, sigma=1e-8)
            tcs = build_constraints(c, ref_lib, lex)
            s_lex = optimize_schedule(tcs, ref_lib, lex)
            s_wei = optimize_schedule(tcs, ref_lib, wei)
            assert abs(s_lex.period - s_wei.period) <= 0.01


PRIORITIES = list(itertools.permutations(("period", "latency", "slack")))

#: Every lexicographic order, the CLI's weighted default and a setting that
#: trades slack against latency.
SOLVER_CONFIGS = [dict(priority=p) for p in PRIORITIES] + [
    dict(priority_mode="weighted", tau=1.0, sigma=1e-8, lam=1e-4),
    dict(priority_mode="weighted", tau=1.0, sigma=0.5, lam=0.01),
]


class TestDifferenceSolver:
    """The cut loop on the constraint graph against the full LP, segment by segment."""

    @staticmethod
    def circuits(lib, rng, count):
        for _ in range(count):
            c = generate_circuit(
                rows=rng.randint(3, 6),
                width=rng.randint(1, 3),
                seed=rng.randint(0, 10**6),
                chain_prob=0.5,
                skip_prob=0.3,
                lib=lib,
            )
            yield c
            removed, plan = remove_buffers(c, lib, max_skip=2)
            if plan.buffers_removed:
                yield removed

    @pytest.mark.parametrize("lib_name", ["ref_lib", "three_segment_library", "fixture_library"])
    def test_matches_staged_lp(self, lib_name, request, monkeypatch):
        lib = request.getfixturevalue(lib_name)
        rng = random.Random(31)
        compared = 0
        for c in self.circuits(lib, rng, 3):
            for settings in SOLVER_CONFIGS:
                for s_min, s_max, delta_max in ((0, 50, 1e4), (1, 8, 1e4), (5, 5, 1e4), (0, 50, 80)):
                    monkeypatch.setattr(solver, "DELTA_MAX", delta_max)  # 80 ps binds
                    cfg = OptimizationConfig(s_min=s_min, s_max=s_max, **settings)
                    tcs = build_constraints(c, lib, cfg)
                    details = {}
                    try:
                        sched = optimize_schedule(tcs, lib, cfg, details=details)
                    except InfeasibleScheduleError:
                        sched = None
                    for out in details["outcomes"]:
                        if out.status == "pruned":
                            continue
                        seg = out.segment
                        status, values = segment_lp_oracle(c, lib, cfg, seg.index, seg.t_lo, seg.t_hi, delta_max)
                        assert out.status == status
                        assert out.stage_values == pytest.approx(values, abs=1e-5)
                        compared += 1
                    if sched is not None:
                        rep = sta_check(c, lib, sched, cfg.hold_mode)
                        assert rep.min_slack >= sched.slack - 1e-6
        assert compared >= 120

    @pytest.mark.parametrize("settings", [
        {}, dict(priority=("latency", "period", "slack")),
        dict(priority=("slack", "period", "latency")), dict(priority_mode="weighted"),
    ], ids=["default", "latency-first", "slack-first", "weighted"])
    def test_infeasible_cycle_names_a_connection(self, fixture_library, settings):
        c = wide_spread_circuit()
        cfg = OptimizationConfig(**settings)
        tcs = build_constraints(c, fixture_library, cfg)
        with pytest.raises(InfeasibleScheduleError) as e:
            optimize_schedule(tcs, fixture_library, cfg)
        keys = {f"{src}->{dst}" for src, dst in zip(c.connections.src, c.connections.dst)}
        assert all(d.code == "INFEASIBLE" for d in e.value.diagnostics)
        assert any(d.entity.split(":", 1)[-1] in keys for d in e.value.diagnostics)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_first_connection_in_file_order_names_a_tied_row(self, fixture_library, reverse):
        # Two setup rows and two hold rows tie on rhs; the first connection
        # of each pair in file order represents the collapsed row.
        setup_pair = [Connection("a2", "b2", 110.0, prop=110.0), Connection("a1", "b2", 110.0, prop=110.0)]
        hold_pair = [Connection("a1", "b1", 1.0, prop=0.0), Connection("a2", "b1", 1.0, prop=0.0)]
        if reverse:
            setup_pair.reverse()
            hold_pair.reverse()
        gates = wide_spread_circuit().gates
        c = Circuit(name="ties", num_rows=2, gates=gates, connections=tuple(setup_pair + hold_pair))
        cfg = OptimizationConfig()
        tcs = build_constraints(c, fixture_library, cfg)
        with pytest.raises(InfeasibleScheduleError) as e:
            optimize_schedule(tcs, fixture_library, cfg)
        named = {d.entity for d in e.value.diagnostics}
        s, h = setup_pair[0], hold_pair[0]
        assert named == {f"setup:{s.src}->{s.dst}", f"hold:{h.src}->{h.dst}"}


def two_cycle_circuit():
    """Rows 0 -> 1 with a hold-critical and a setup-critical connection.

    With the setup-sloped library below and delta_max 72, the 2-cycle
    through both connections rules out periods below 200 ps, and the
    setup row against the delta_max bound rules out periods above 150 ps.
    """
    gates = wide_spread_circuit().gates
    return Circuit(name="two-cycles", num_rows=2, gates=gates,
                   connections=(Connection("a1", "b1", 1.0, prop=0.0), Connection("a2", "b2", 52.0, prop=52.0)))


def sloped_setup_library():
    """The fixture library with setup 0.1*T - 5 ps."""
    timing = CellTiming(c2q=const_fn(10.0), setup=PiecewiseLinear(BP2, ((0.1, -5.0),) * 2),
                        hold=const_fn(5.0), rd=PiecewiseLinear(BP2, ((0.3, 10.0), (0.36, 0.0))))
    return make_library({"buffer": timing, "majority3": timing})


def reported_excess(err):
    """The X of every ``violated by X ps`` line, which must agree; printed to six digits."""
    found = {float(x) for x in re.findall(r"^\[INFEASIBLE\] .*violated by (\S+) ps$", err, re.M)}
    assert len(found) == 1, err
    return found.pop()


def cli_inputs(tmp_path, circuit, lib):
    """Write the circuit and library files; returns their command-line flags."""
    (tmp_path / "c.qc.json").write_text(serialize_circuit(circuit))
    (tmp_path / "l.qlib.json").write_text(serialize_library(lib))
    return ["--circuit", str(tmp_path / "c.qc.json"), "--lib", str(tmp_path / "l.qlib.json")]


class TestInfeasibleReport:
    """What ``violated by X ps`` reports, worked out from the library's values
    and the connections' delays rather than from solver edges."""

    def test_wide_spread_excess(self, fixture_library, tmp_path, capsys):
        c = wide_spread_circuit()
        t = fixture_library.timing("majority3")
        # The 2-cycle through setup a2->b2 and hold a1->b1 weighs, at S = 0,
        # c2q + setup + 110 - (c2q + rd - hold + 0). rd grows with the period,
        # so the least weight over the library's range is at its top.
        def weight(p):
            return t.c2q(p) + t.setup(p) + c.connections.prop[1] - (t.c2q(p) + t.rd(p) - t.hold(p))

        assert main(["optimize", *cli_inputs(tmp_path, c, fixture_library)]) == 2
        assert reported_excess(capsys.readouterr().err) == pytest.approx(weight(300.0), rel=1e-5)

    def test_two_cycle_excess_is_where_the_weights_cross(self, monkeypatch):
        c, lib = two_cycle_circuit(), sloped_setup_library()
        t = lib.timing("majority3")
        cfg, delta_max = OptimizationConfig(), 72.0
        monkeypatch.setattr(solver, "DELTA_MAX", delta_max)

        delay = c.connections.prop[1]

        def falling(p):  # setup a2->b2 and hold a1->b1
            return t.c2q(p) + t.setup(p) + delay - (t.c2q(p) + t.rd(p) - t.hold(p))

        def rising(p):  # setup a2->b2 against delta_max
            return t.c2q(p) + t.setup(p) + delay - delta_max

        # Both are affine on (100, 300]; the least largest weight is where they cross.
        p1, p2 = 150.0, 250.0
        gap = [falling(p) - rising(p) for p in (p1, p2)]
        cross = p1 + (p2 - p1) * gap[0] / (gap[0] - gap[1])
        assert falling(cross) > 0
        with pytest.raises(InfeasibleScheduleError) as e:
            optimize_schedule(build_constraints(c, lib, cfg), lib, cfg)
        assert reported_excess("\n".join(map(str, e.value.diagnostics))) == pytest.approx(falling(cross), rel=1e-5)
        assert {d.entity for d in e.value.diagnostics} == {"setup:a2->b2", "hold:a1->b1"}


#: (what is forced, patched object, attribute, value, circuit, solver flags, reason in the diagnostic).
BREAKDOWNS = [
    ("pivot", solver, "PIVOT_TOL", 1e9, "two_row", (), "is below"),
    ("pivot-limit", solver, "PIVOT_LIMIT", 0, "two_row", (), "more than 0 pivots"),
    ("post-check", solver, "FEAS_TOL", -1.0, "two_row", ("--priority", "slack,period,latency"),
     "violates a master row"),
    ("bounds", solver, "FIX_TOL", -1.0, "two_row", (), "leaves the bounds"),
    ("sweeps", solver._ConstraintGraph, "_parent_cycles", lambda self, parent: [], "wide_spread", (),
     "did not settle"),
]


class TestSolverBreakdown:
    @pytest.mark.parametrize("target,attr,value,circuit,flags,reason",
                             [b[1:] for b in BREAKDOWNS], ids=[b[0] for b in BREAKDOWNS])
    def test_breakdown_is_a_diagnostic(self, monkeypatch, tmp_path, capsys, fixture_library, two_row_circuit,
                                       target, attr, value, circuit, flags, reason):
        monkeypatch.setattr(target, attr, value)
        c = two_row_circuit if circuit == "two_row" else wide_spread_circuit()
        assert main(["optimize", *cli_inputs(tmp_path, c, fixture_library), *flags]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if line.startswith("[SOLVER_BREAKDOWN] segment ")]
        assert lines and all(reason in line for line in lines), err

    def test_sweep_records_breakdown_as_failed_row(self, monkeypatch, tmp_path, capsys, fixture_library,
                                                   two_row_circuit):
        monkeypatch.setattr(solver, "PIVOT_LIMIT", 0)
        out = tmp_path / "sweep.json"
        assert main(["sweep", *cli_inputs(tmp_path, two_row_circuit, fixture_library),
                     "--configs", "table1a,table3", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["results"]
        assert [r["config"] for r in rows] == ["table1a", "table3"]
        assert all(r["error"][0].startswith("[SOLVER_BREAKDOWN] segment ") for r in rows)

    def test_other_segments_still_solve(self, monkeypatch, two_row_circuit, fixture_library):
        # Break only the upper segment down; the lower one still gives the schedule.
        real = solver._solve_segment

        def fails_above_first(edges, num_deltas, seg, cfg):
            if seg.index:
                raise SolverBreakdown("forced")
            return real(edges, num_deltas, seg, cfg)

        monkeypatch.setattr(solver, "_solve_segment", fails_above_first)
        cfg = OptimizationConfig()
        details = {}
        sched = optimize_schedule(build_constraints(two_row_circuit, fixture_library, cfg), fixture_library, cfg,
                                  details=details)
        assert [o.status for o in details["outcomes"]] == ["optimal", "breakdown"]
        assert sched.period == pytest.approx(100.0)

    def test_period_on_a_breakpoint_is_the_lower_segments(self, monkeypatch, two_row_circuit,
                                                          three_segment_library):
        # Segment 1 shrinks to the one period 200 and breaks down; segment 2
        # then solves at 200, a period the piecewise evaluation gives to segment 1.
        real = solver._solve_segment

        def fails_in_segment_1(edges, num_deltas, seg, cfg):
            if seg.index == 1:
                raise SolverBreakdown("forced")
            return real(edges, num_deltas, seg, cfg)

        monkeypatch.setattr(solver, "_solve_segment", fails_in_segment_1)
        lib, cfg, details = three_segment_library, OptimizationConfig(t_min_override=200.0), {}
        sched = optimize_schedule(build_constraints(two_row_circuit, lib, cfg), lib, cfg, details=details)
        assert [(o.segment.index, o.status) for o in details["outcomes"]] == [(1, "breakdown"), (2, "optimal")]
        assert sched.period == 200.0
        assert sched.segment_index == 1 == lib.timing("majority3").rd.segment_of(sched.period)

    def test_segment_left_empty_by_its_nudge_is_pruned(self, two_row_circuit, fixture_library):
        # rd jumps at 100 ps, so segment 1 gives up its lower breakpoint, the only period allowed.
        cfg, details = OptimizationConfig(t_min_override=100.0, t_max_override=100.0), {}
        sched = optimize_schedule(build_constraints(two_row_circuit, fixture_library, cfg), fixture_library, cfg,
                                  details=details)
        assert [o.status for o in details["outcomes"]] == ["optimal", "pruned"]
        assert (sched.period, sched.segment_index) == (100.0, 0)


class TestExplore:
    """One circuit's constraints solved under several configurations, as
    ``sweep`` solves its presets."""

    def test_smin_monotonicity(self, ref_lib):
        for seed in range(5):
            c = generate_circuit(rows=6, width=3, seed=seed, lib=ref_lib)
            base = OptimizationConfig()
            tcs = build_constraints(c, ref_lib, base)
            loose = optimize_schedule(tcs, ref_lib, base)
            tight = optimize_schedule(tcs, ref_lib, OptimizationConfig(s_min=5.0))
            assert tight.latency >= loose.latency - 1e-6
            assert tight.period >= loose.period - 1e-9

    def test_dlplace_relaxes_period(self, fixture_library):
        # delay spread of 70 needs the rd-based window 0.36T - 10 >= 70,
        # i.e. T >= 222.2; the full-period window is satisfied already at t_min
        c = Circuit(
            name="spread70",
            num_rows=2,
            gates=(
                Gate("a1", "majority3", 0, 0.0),
                Gate("a2", "majority3", 0, 0.0),
                Gate("b1", "majority3", 1, 0.0),
                Gate("b2", "majority3", 1, 0.0),
            ),
            connections=(
                Connection("a1", "b1", 1.0, prop=10.0),
                Connection("a2", "b2", 80.0, prop=80.0),
            ),
        )
        reset = OptimizationConfig()
        tcs = build_constraints(c, fixture_library, reset)
        t_reset = optimize_schedule(tcs, fixture_library, reset).period
        t_dl = optimize_schedule(tcs, fixture_library, OptimizationConfig(hold_mode="dlplace")).period
        assert t_dl <= t_reset
        assert t_dl < t_reset - 1.0  # strict on this fixture
        assert t_reset == pytest.approx(80.0 / 0.36, rel=1e-3)
        assert t_dl == pytest.approx(100.0, abs=1e-4)

    def test_failures_recorded_not_raised(self, monkeypatch, tmp_path, capsys, fixture_library, two_row_circuit):
        # A preset whose solve fails becomes a failed row, and the next preset still runs.
        with pytest.raises(InfeasibleScheduleError) as e:
            optimize_schedule(build_constraints(two_row_circuit, fixture_library, OptimizationConfig()),
                              fixture_library, OptimizationConfig(t_min_override=500.0))
        real = optimize_schedule

        def fails_with_min_slack(tcs, lib, cfg):
            if cfg.s_min:
                raise e.value
            return real(tcs, lib, cfg)

        monkeypatch.setattr(solver, "optimize_schedule", fails_with_min_slack)
        out = tmp_path / "sweep.json"
        assert main(["sweep", *cli_inputs(tmp_path, two_row_circuit, fixture_library),
                     "--configs", "table1b,table1a", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["results"]
        assert rows[0] == {"config": "table1b", "error": [str(d) for d in e.value.diagnostics]}
        assert rows[1]["config"] == "table1a" and rows[1]["frequency_ghz"] > 0
        assert "WARNING aqfpopt: preset table1b failed: " in capsys.readouterr().err
