import itertools
import random

import pytest

from oracles import grid_min_period, min_latency_at, segment_lp_oracle, solve_2var_by_enumeration
from aqfpopt.bufferopt import remove_buffers
from aqfpopt.cli import generate_circuit
from aqfpopt.model import (
    Circuit,
    Connection,
    Gate,
    OptimizationConfig,
)
from aqfpopt.solver import (
    InfeasibleScheduleError,
    LpProblem,
    SegmentRestriction,
    explore,
    lp_solve,
    optimize_schedule,
    segment_restrictions,
)
from aqfpopt.timing import build_constraints, sta_check


class TestLpSolve:
    def test_simple_maximization(self):
        p = LpProblem()
        p.add_variable("x", 0.0, None)
        p.add_constraint({"x": 1.0}, "<=", 3.0)
        p.set_objective({"x": -1.0})
        sol = lp_solve(p)
        assert sol.status == "optimal"
        assert sol.values["x"] == pytest.approx(3.0)
        assert sol.objective == pytest.approx(-3.0)

    def test_infeasible_box(self):
        p = LpProblem()
        p.add_variable("x", 0.0, None)
        p.add_constraint({"x": 1.0}, ">=", 2.0, tag="lo")
        p.add_constraint({"x": 1.0}, "<=", 1.0, tag="hi")
        p.set_objective({"x": 1.0})
        sol = lp_solve(p)
        assert sol.status == "infeasible"
        assert sol.violations and sol.violations[0][1] >= 1.0 - 1e-9

    def test_two_variable_vertex(self):
        p = LpProblem()
        p.add_variable("x", 0.0, None)
        p.add_variable("y", 0.0, None)
        p.add_constraint({"x": 1.0, "y": 2.0}, ">=", 4.0)
        p.add_constraint({"x": 3.0, "y": 1.0}, ">=", 6.0)
        p.set_objective({"x": 1.0, "y": 1.0})
        sol = lp_solve(p)
        oracle = solve_2var_by_enumeration(
            [(1.0, 2.0, ">=", 4.0), (3.0, 1.0, ">=", 6.0)], (0.0, 1e6), (0.0, 1e6), (1.0, 1.0)
        )
        assert sol.status == "optimal"
        assert sol.values["x"] == pytest.approx(1.6)
        assert sol.values["y"] == pytest.approx(1.2)
        assert sol.objective == pytest.approx(2.8)
        assert sol.objective == pytest.approx(oracle[2])

    def test_unbounded(self):
        p = LpProblem()
        p.add_variable("x", 0.0, None)
        p.set_objective({"x": -1.0})
        sol = lp_solve(p)
        assert sol.status == "unbounded"

    def test_equality_and_shifted_bounds(self):
        p = LpProblem()
        p.add_variable("x", -5.0, 5.0)
        p.add_variable("y", -5.0, 5.0)
        p.add_constraint({"x": 1.0, "y": 1.0}, "=", 1.0)
        p.set_objective({"x": 1.0, "y": -1.0})
        sol = lp_solve(p)
        assert sol.status == "optimal"
        assert sol.values["x"] + sol.values["y"] == pytest.approx(1.0)
        assert sol.values == {"x": -4.0, "y": 5.0}

    def test_deterministic(self):
        def build():
            p = LpProblem()
            p.add_variable("a", 0.0, 10.0)
            p.add_variable("b", 0.0, 10.0)
            p.add_variable("c", 0.0, 10.0)
            p.add_constraint({"a": 1.0, "b": 1.0, "c": 1.0}, ">=", 5.0)
            p.add_constraint({"a": 1.0, "b": -1.0}, "<=", 2.0)
            p.set_objective({"a": 1.0, "b": 1.0, "c": 1.0})
            return p

        first = lp_solve(build())
        second = lp_solve(build())
        assert first.values == second.values

    def test_random_2var_against_enumeration(self):
        rng = random.Random(99)
        for trial in range(60):
            cons = []
            for _ in range(rng.randint(1, 5)):
                a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
                sense = rng.choice(["<=", ">="])
                cons.append((a, b, sense, rng.uniform(-5, 5)))
            obj = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            p = LpProblem()
            p.add_variable("x", 0.0, 10.0)
            p.add_variable("y", 0.0, 10.0)
            for k, (a, b, sense, rhs) in enumerate(cons):
                p.add_constraint({"x": a, "y": b}, sense, rhs, tag=str(k))
            p.set_objective({"x": obj[0], "y": obj[1]})
            sol = lp_solve(p)
            oracle = solve_2var_by_enumeration(cons, (0.0, 10.0), (0.0, 10.0), obj)
            if oracle is None:
                assert sol.status == "infeasible"
            else:
                assert sol.status == "optimal"
                assert sol.objective == pytest.approx(oracle[2], abs=1e-6)


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
            cells = {g.cell for g in c.gates}
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
    def test_matches_staged_lp(self, lib_name, request):
        lib = request.getfixturevalue(lib_name)
        rng = random.Random(31)
        compared = 0
        for c in self.circuits(lib, rng, 3):
            for settings in SOLVER_CONFIGS:
                for s_min, s_max, delta_max in ((0, 50, 1e4), (1, 8, 1e4), (5, 5, 1e4), (0, 50, 80)):
                    cfg = OptimizationConfig(
                        s_min=s_min, s_max=s_max, delta_max=delta_max, **settings
                    )
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
                        status, values = segment_lp_oracle(c, lib, cfg, seg.index, seg.t_lo, seg.t_hi)
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
        keys = {conn.key for conn in c.connections}
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
        assert named == {f"setup:{setup_pair[0].key}", f"hold:{hold_pair[0].key}"}


class TestExplore:
    def test_smin_monotonicity(self, ref_lib):
        for seed in range(5):
            c = generate_circuit(rows=6, width=3, seed=seed, lib=ref_lib)
            base = OptimizationConfig()
            tight = OptimizationConfig(s_min=5.0)
            tcs = build_constraints(c, ref_lib, base)
            rows = explore(tcs, ref_lib, [base, tight], labels=["base", "smin5"])
            assert all(r.schedule is not None for r in rows)
            assert rows[1].schedule.latency >= rows[0].schedule.latency - 1e-6
            assert rows[1].schedule.period >= rows[0].schedule.period - 1e-9

    def test_empty_config_list(self, ref_lib, two_row_circuit, fixture_library):
        tcs = build_constraints(two_row_circuit, fixture_library, OptimizationConfig())
        assert explore(tcs, fixture_library, []) == []

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
        relaxed = OptimizationConfig(hold_mode="dlplace")
        tcs = build_constraints(c, fixture_library, reset)
        rows = explore(tcs, fixture_library, [reset, relaxed], labels=["reset", "dlplace"])
        t_reset = rows[0].schedule.period
        t_dl = rows[1].schedule.period
        assert t_dl <= t_reset
        assert t_dl < t_reset - 1.0  # strict on this fixture
        assert t_reset == pytest.approx(80.0 / 0.36, rel=1e-3)
        assert t_dl == pytest.approx(100.0, abs=1e-4)

    def test_failures_recorded_not_raised(self, fixture_library, two_row_circuit):
        ok = OptimizationConfig()
        bad = OptimizationConfig(t_min_override=500.0)
        tcs = build_constraints(two_row_circuit, fixture_library, ok)
        rows = explore(tcs, fixture_library, [ok, bad], labels=["ok", "bad"])
        assert rows[0].schedule is not None
        assert rows[1].schedule is None and rows[1].error
