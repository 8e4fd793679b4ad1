import math
import random

import pytest

from conftest import NO_CAP, records, reformulated_residuals
from aqfpopt.generator import generate_circuit
from aqfpopt.model import (
    Circuit,
    Connection,
    Gate,
    OptimizationConfig,
    PwlDomainError,
    Schedule,
    ValidationError,
)
from aqfpopt.solver import SegmentRestriction
from aqfpopt.timing import (
    SlackReport,
    SlackTable,
    build_constraints,
    sta_check,
)


def three_row_skip_circuit():
    return Circuit(
        name="skip",
        num_rows=3,
        gates=(
            Gate("a", "majority3", 0, 0.0),
            Gate("b", "majority3", 1, 1.0),
            Gate("c", "majority3", 2, 2.0),
        ),
        connections=(
            Connection("a", "b", 5.0, prop=5.0),
            Connection("a", "c", 9.0, prop=9.0),  # skips row 1
        ),
    )


class TestDeltaClk:
    @pytest.mark.parametrize(
        "src_off,dst_off,expected", [(3.0, 5.0, 2.0), (4.0, 4.0, 0.0), (5.0, 3.0, -2.0)]
    )
    def test_offset_difference(self, src_off, dst_off, expected, fixture_library):
        # The base clock-arrival difference enters the record's rhs, after
        # the length-derived delay (1 um at 1 ps/um).
        c = Circuit(
            name="d",
            num_rows=2,
            gates=(Gate("a", "majority3", 0, src_off), Gate("b", "majority3", 1, dst_off)),
            connections=(Connection("a", "b", 1.0),),
        )
        (tc,) = records(build_constraints(c, fixture_library, OptimizationConfig()).constraints)
        assert tc.rhs == 1.0 * fixture_library.prop_per_um - expected


class TestBuildConstraints:
    def test_adjacent_row_shape(self, two_row_circuit, fixture_library):
        tcs = build_constraints(two_row_circuit, fixture_library, OptimizationConfig())
        (tc,) = records(tcs.constraints)
        assert (tc.src, tc.dst, tc.first_row, tc.last_row) == ("a", "b", 0, 1)
        assert tc.rhs == pytest.approx(3.0)  # prop 5 - clock difference 2

    def test_fixture_values_via_pseudo_variables(self, two_row_circuit, fixture_library):
        tcs = build_constraints(two_row_circuit, fixture_library, OptimizationConfig())
        (tc,) = records(tcs.constraints)
        assert (tc.src_cell, tc.dst_cell) == ("majority3", "majority3")
        # combined terms on the fixture at 200 ps (segment 1): F_S = 15, F_H = 5 + rd(T)
        seg = SegmentRestriction(index=1, t_lo=100.0, t_hi=300.0, lib=fixture_library)
        a, b = seg.fs_affine("majority3", "majority3")
        assert a * 200.0 + b == pytest.approx(15.0)
        a, b = seg.fh_affine("majority3", "majority3", "reset-delay")
        assert a * 200.0 + b == pytest.approx(5.0 + 72.0)

    def test_skip_connection_references_both_deltas(self, fixture_library):
        tcs = build_constraints(three_row_skip_circuit(), fixture_library, OptimizationConfig())
        rows = {tc.dst: (tc.first_row, tc.last_row) for tc in records(tcs.constraints)}
        assert rows == {"b": (0, 1), "c": (0, 2)}

    def test_span_cap_enforced(self, fixture_library):
        c = Circuit(
            name="wide",
            num_rows=4,
            gates=(Gate("a", "majority3", 0, 0.0), Gate("d", "majority3", 3, 3.0)),
            connections=(Connection("a", "d", 9.0),),
        )
        with pytest.raises(ValidationError) as e:
            build_constraints(c, fixture_library, OptimizationConfig(max_skip=2))
        assert e.value.diagnostics[0].code == "UNSUPPORTED_SKIP"
        assert e.value.diagnostics[0].entity == "a->d"
        tcs = build_constraints(c, fixture_library, OptimizationConfig(max_skip=NO_CAP))
        assert [(tc.first_row, tc.last_row) for tc in records(tcs.constraints)] == [(0, 3)]


class TestStaCheck:
    def test_fixture_slacks_at_200ps(self, two_row_circuit, fixture_library):
        sched = Schedule(period=200.0, row_deltas=(18.0,), slack=0.0, latency=18.0)
        rep = sta_check(two_row_circuit, fixture_library, sched)
        (entry,) = records(rep.entries)
        assert entry.setup_slack == pytest.approx(0.0, abs=1e-12)
        assert entry.hold_slack == pytest.approx(62.0, abs=1e-12)
        assert rep.min_slack == pytest.approx(0.0, abs=1e-12)

    def test_setup_violation_detected(self, two_row_circuit, fixture_library):
        sched = Schedule(period=200.0, row_deltas=(17.0,), slack=0.0, latency=17.0)
        rep = sta_check(two_row_circuit, fixture_library, sched)
        assert rep.entries.setup_slack[0] == pytest.approx(-1.0)
        assert rep.failing() == [0]

    @pytest.mark.parametrize("setup,hold", [(math.nan, 5.0), (5.0, math.nan), (math.inf, math.inf)])
    def test_non_finite_slack_fails(self, setup, hold):
        assert SlackReport(SlackTable(["a"], ["b"], [setup], [hold]), None).failing() == [0]

    def test_no_connections_min_slack_none(self, fixture_library):
        c = Circuit(name="e", num_rows=1, gates=(Gate("a", "majority3", 0, 0.0),), connections=())
        rep = sta_check(c, fixture_library, Schedule(period=200.0, row_deltas=(), slack=0.0, latency=0.0))
        assert rep.min_slack is None
        assert rep.failing() == []

    @pytest.mark.parametrize("period", [0.0, 300.5, math.nan])
    def test_period_outside_the_breakpoints_raises(self, two_row_circuit, fixture_library, period):
        sched = Schedule(period=period, row_deltas=(18.0,), slack=0.0, latency=18.0)
        for mode in ("reset-delay", "dlplace"):
            with pytest.raises(PwlDomainError):
                sta_check(two_row_circuit, fixture_library, sched, mode)
        # Without connections nothing is evaluated, so nothing raises.
        empty = two_row_circuit._replace(connections=())
        assert len(sta_check(empty, fixture_library, sched).entries) == 0

    def test_dlplace_mode_uses_period_as_window(self, two_row_circuit, fixture_library):
        sched = Schedule(period=200.0, row_deltas=(18.0,), slack=0.0, latency=18.0)
        rep = sta_check(two_row_circuit, fixture_library, sched, hold_mode="dlplace")
        assert rep.entries.hold_slack[0] == pytest.approx(62.0 + (200.0 - 72.0))


class TestReformulationEquivalence:
    def equivalence_case(self, circuit, lib, rng, hold_mode):
        t_lo, t_hi = lib.period_lo, lib.t_max
        period = rng.uniform(t_lo, t_hi)
        deltas = [rng.uniform(0.0, 80.0) for _ in range(circuit.num_rows - 1)]
        sched = Schedule(
            period=period, row_deltas=tuple(deltas), slack=0.0, latency=sum(deltas)
        )
        tcs = build_constraints(circuit, lib, OptimizationConfig(max_skip=NO_CAP))
        residuals = reformulated_residuals(tcs, lib, period, deltas, hold_mode)
        rep = sta_check(circuit, lib, sched, hold_mode)
        assert len(residuals) == 2 * len(circuit.connections)
        for entry in records(rep.entries):
            assert residuals[(entry.src, entry.dst, "setup")] == pytest.approx(
                entry.setup_slack, abs=1e-9
            )
            assert residuals[(entry.src, entry.dst, "hold")] == pytest.approx(
                entry.hold_slack, abs=1e-9
            )

    def test_random_circuits_both_modes(self, ref_lib):
        # Adversarial circuits carry no extracted delays, so every
        # connection's delay is its length times prop_per_um; a factor
        # other than 1 makes a dropped or doubled factor show.
        rng = random.Random(123)
        scaled = ref_lib._replace(prop_per_um=0.75)
        for adversarial, lib in ((False, ref_lib), (True, scaled)):
            for trial in range(30):
                circuit = generate_circuit(
                    rows=rng.randint(2, 8),
                    width=rng.randint(1, 4),
                    seed=rng.randint(0, 10**6),
                    chain_prob=0.4,
                    skip_prob=0.4,
                    adversarial=adversarial,
                    lib=lib,
                )
                assert all((conn.prop is None) == adversarial for conn in records(circuit.connections))
                for mode in ("reset-delay", "dlplace"):
                    self.equivalence_case(circuit, lib, rng, mode)

    def test_negative_delta_clk_is_legal(self, fixture_library):
        c = Circuit(
            name="neg",
            num_rows=2,
            gates=(Gate("a", "majority3", 0, 5.0), Gate("b", "majority3", 1, 3.0)),
            connections=(Connection("a", "b", 5.0, prop=5.0),),
        )
        (tc,) = records(build_constraints(c, fixture_library, OptimizationConfig()).constraints)
        assert tc.rhs == pytest.approx(7.0)  # 5 - (-2)


class TestDlplaceRelaxation:
    def test_hold_bound_never_tighter(self, ref_lib):
        rng = random.Random(5)
        cells = sorted(ref_lib.cells)
        for _ in range(200):
            src, dst = rng.choice(cells), rng.choice(cells)
            t = rng.uniform(ref_lib.period_lo, ref_lib.t_max)
            s, d = ref_lib.timing(src), ref_lib.timing(dst)
            seg = SegmentRestriction(index=s.c2q.segment_of(t), t_lo=t, t_hi=t, lib=ref_lib)
            a, b = seg.fh_affine(src, dst, "dlplace")
            relaxed = a * t + b
            a, b = seg.fh_affine(src, dst, "reset-delay")
            reset = a * t + b
            assert relaxed == pytest.approx(s.c2q(t) + t - d.hold(t), abs=1e-9)
            assert reset == pytest.approx(s.c2q(t) + s.rd(t) - d.hold(t), abs=1e-9)
            assert relaxed >= reset
            assert s.rd(t) < t

    def test_feasible_schedule_stays_feasible_under_dlplace(self, ref_lib):
        rng = random.Random(6)
        for trial in range(10):
            circuit = generate_circuit(rows=5, width=3, seed=trial, lib=ref_lib)
            deltas = tuple(rng.uniform(50.0, 90.0) for _ in range(circuit.num_rows - 1))
            sched = Schedule(
                period=250.0, row_deltas=deltas, slack=0.0, latency=sum(deltas)
            )
            reset = sta_check(circuit, ref_lib, sched, "reset-delay")
            relaxed = sta_check(circuit, ref_lib, sched, "dlplace")
            for a, b in zip(records(reset.entries), records(relaxed.entries)):
                assert b.hold_slack >= a.hold_slack - 1e-12
                assert b.setup_slack == pytest.approx(a.setup_slack, abs=1e-12)
