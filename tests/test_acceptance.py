"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they complete.
"""

import contextlib
import random
import time

from conftest import NO_CAP, make_library, records, reformulated_residuals
from oracles import chain_brute_force, grid_min_period, min_latency_at
from aqfpopt.bufferopt import extract_chains, remove_buffers, solve_chain
from aqfpopt.cli import main
from aqfpopt.generator import generate_circuit
from aqfpopt.ingest import parse_report, serialize_library
from aqfpopt.model import (
    Circuit,
    Connection,
    Gate,
    OptimizationConfig,
    Schedule,
)
from aqfpopt.solver import optimize_schedule
from aqfpopt.timing import build_constraints, sta_check


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def random_chain(rng):
    """The hops of a chain of 0 to 12 buffers."""
    m = rng.randint(0, 12)
    nodes = ("s", *(f"b{i}" for i in range(m)), "t")
    return tuple(Connection(nodes[i], nodes[i + 1], rng.uniform(1.0, 100.0)) for i in range(m + 1))


def test_criterion_1_chain_optimality(fixture_library):
    with criterion(1, "chain removal matches exhaustive subset enumeration (1000 chains, < 5 s)"):
        rng = random.Random(20240801)
        start = time.perf_counter()
        for trial in range(1000):
            hops = random_chain(rng)
            lib = make_library(
                fixture_library.cells,
                l_buffer=rng.uniform(2.0, 30.0),
                l_max_drive=rng.uniform(110.0, 400.0),
            )
            rows = list(range(len(hops) + 1))
            removed = len(rows) - len(solve_chain(hops, rows, lib, NO_CAP))
            expected, _ = chain_brute_force([h.length for h in hops], lib)
            assert removed == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_2_decomposition(ref_lib):
    with criterion(2, "global removal equals the sum of per-chain optima (100 circuits)"):
        rng = random.Random(2)
        for trial in range(100):
            c = generate_circuit(
                rows=rng.randint(6, 14),
                width=rng.randint(1, 4),
                seed=rng.randint(0, 10**7),
                chain_prob=0.7,
                lib=ref_lib,
            )
            _, plan = remove_buffers(c, ref_lib, max_skip=2)
            total = 0
            row = dict(zip(c.gates.id, c.gates.row))
            for hops in extract_chains(c):
                rows = [row[hops[0].src]] + [row[h.dst] for h in hops]
                total += len(rows) - len(solve_chain(hops, rows, ref_lib, 2))
            assert plan.buffers_removed == total


def test_criterion_3_reformulation_correctness(ref_lib):
    with criterion(3, "STA slacks equal constraint residuals at S=0 to 1e-9 ps (200 triples)"):
        rng = random.Random(3)
        cfg = OptimizationConfig(max_skip=NO_CAP)
        for trial in range(200):
            c = generate_circuit(
                rows=rng.randint(2, 9),
                width=rng.randint(1, 4),
                seed=rng.randint(0, 10**7),
                chain_prob=0.3,
                skip_prob=0.3,
                lib=ref_lib,
            )
            period = rng.uniform(ref_lib.period_lo, ref_lib.t_max)
            deltas = [rng.uniform(0.0, 90.0) for _ in range(c.num_rows - 1)]
            sched = Schedule(period=period, row_deltas=tuple(deltas), slack=0.0, latency=sum(deltas))
            mode = rng.choice(["reset-delay", "dlplace"])
            tcs = build_constraints(c, ref_lib, cfg)
            residuals = reformulated_residuals(tcs, ref_lib, period, deltas, mode)
            rep = sta_check(c, ref_lib, sched, mode)
            for e in records(rep.entries):
                assert abs(residuals[(e.src, e.dst, "setup")] - e.setup_slack) <= 1e-9
                assert abs(residuals[(e.src, e.dst, "hold")] - e.hold_slack) <= 1e-9


def test_criterion_4_schedule_optimality(three_segment_library):
    with criterion(4, "lexicographic optimum matches 0.05 ps grid search (50 circuits, < 0.1 s each)"):
        lib = three_segment_library
        rng = random.Random(4)
        cfg = OptimizationConfig()
        done = 0
        while done < 50:
            c = generate_circuit(
                rows=rng.randint(2, 6),
                width=rng.randint(1, 3),
                seed=rng.randint(0, 10**7),
                skip_prob=0.3,
                lib=lib,
            )
            if len(c.connections) > 20:
                continue
            done += 1
            tcs = build_constraints(c, lib, cfg)
            start = time.perf_counter()
            sched = optimize_schedule(tcs, lib, cfg)
            elapsed = time.perf_counter() - start
            assert elapsed < 0.1, f"solve took {elapsed * 1e3:.1f} ms"
            t_grid, _ = grid_min_period(c, lib, lib.period_lo, lib.t_max, cfg.s_min, step=0.05)
            assert t_grid is not None
            assert abs(sched.period - t_grid) <= 0.1
            l_oracle = min_latency_at(c, lib, sched.period, cfg.s_min)
            assert l_oracle is not None
            assert abs(sched.latency - l_oracle) <= 0.1


def test_criterion_5_timing_closure(tmp_path, ref_lib):
    with criterion(5, "every feasible schedule passes verification with min slack >= S - 1e-6"):
        lib_path = tmp_path / "ref.qlib.json"
        lib_path.write_text(serialize_library(ref_lib))
        rng = random.Random(5)
        checked = 0
        for trial in range(20):
            rows, width = rng.randint(3, 9), rng.randint(1, 3)
            seed = rng.randint(0, 10**7)
            circ_path = tmp_path / f"c{trial}.qc.json"
            assert main([
                "gen", "--rows", str(rows), "--width", str(width), "--seed", str(seed),
                "--chain-prob", "0.5", "--skip-prob", "0.2",
                "--lib", str(lib_path), "--out", str(circ_path),
            ]) == 0
            report_path = tmp_path / f"c{trial}.report.json"
            argv = ["optimize", "--circuit", str(circ_path), "--lib", str(lib_path),
                    "--out", str(report_path), "--smin", str(rng.choice([0.0, 2.0, 5.0]))]
            if rng.random() < 0.5:
                argv.append("--remove-buffers")
            assert main(argv) == 0
            report = parse_report(report_path.read_text())
            assert report["min_slack_ps"] >= report["slack_ps"] - 1e-6
            assert main(["verify", "--circuit", str(circ_path), "--lib", str(lib_path),
                         "--schedule", str(report_path)]) == 0
            checked += 1
        assert checked == 20


def test_criterion_6_reference_anchor(ref_lib):
    with criterion(6, "reference library: rd(200 ps) = 72 ps and 5.0 GHz at 200 ps"):
        assert ref_lib.timing("buffer").rd(200.0) == 72.0
        from aqfpopt.ingest import emit_report
        from aqfpopt.timing import SlackReport, SlackTable

        report = emit_report(Schedule(period=200.0, row_deltas=(), slack=0.0, latency=0.0), SlackReport(SlackTable([], [], [], []), None))
        assert report["frequency_ghz"] == 5.0


def test_criterion_7_tradeoff_monotonicity(ref_lib):
    with criterion(7, "raising s_min 0 -> 5 never cuts latency and never raises frequency (50 circuits)"):
        rng = random.Random(7)
        for trial in range(50):
            c = generate_circuit(
                rows=rng.randint(3, 9),
                width=rng.randint(1, 4),
                seed=rng.randint(0, 10**7),
                lib=ref_lib,
            )
            loose = OptimizationConfig(s_min=0.0)
            tight = OptimizationConfig(s_min=5.0)
            tcs = build_constraints(c, ref_lib, loose)
            s0 = optimize_schedule(tcs, ref_lib, loose)
            s5 = optimize_schedule(tcs, ref_lib, tight)
            assert s5.latency >= s0.latency - 1e-6
            assert 1000.0 / s5.period <= 1000.0 / s0.period + 1e-9


def test_criterion_8_dlplace_relaxation(ref_lib, fixture_library):
    with criterion(8, "dlplace hold model never needs a longer period; strict on a fixture"):
        rng = random.Random(8)
        for trial in range(25):
            c = generate_circuit(
                rows=rng.randint(2, 8),
                width=rng.randint(1, 4),
                seed=rng.randint(0, 10**7),
                skip_prob=0.2,
                lib=ref_lib,
            )
            reset_cfg = OptimizationConfig()
            dl_cfg = OptimizationConfig(hold_mode="dlplace")
            tcs = build_constraints(c, ref_lib, reset_cfg)
            t_reset = optimize_schedule(tcs, ref_lib, reset_cfg).period
            t_dl = optimize_schedule(tcs, ref_lib, dl_cfg).period
            assert t_dl <= t_reset + 1e-9
        # constructed fixture with a 70 ps per-row delay spread: reset-delay
        # mode needs 0.36T >= 80, the full-period window is free at t_min
        c = Circuit(
            name="strict",
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
        tcs = build_constraints(c, fixture_library, OptimizationConfig())
        t_reset = optimize_schedule(tcs, fixture_library, OptimizationConfig()).period
        t_dl = optimize_schedule(tcs, fixture_library, OptimizationConfig(hold_mode="dlplace")).period
        assert t_dl < t_reset - 1.0


def test_criterion_9_phase_skipping_pipeline(ref_lib):
    with criterion(9, "buffer removal saves buffers, stays feasible, and never adds latency at fixed frequency (50 circuits)"):
        rng = random.Random(9)
        cfg = OptimizationConfig()
        done = 0
        attempts = 0
        while done < 50:
            attempts += 1
            assert attempts < 300
            c = generate_circuit(
                rows=rng.randint(8, 14),
                width=rng.randint(2, 3),
                seed=rng.randint(0, 10**7),
                chain_prob=0.8,
                lib=ref_lib,
            )
            if not extract_chains(c):
                continue
            done += 1
            tcs = build_constraints(c, ref_lib, cfg)
            baseline = optimize_schedule(tcs, ref_lib, cfg)
            removed_circ, plan = remove_buffers(c, ref_lib, max_skip=2)
            assert plan.buffers_removed > 0
            # the removed circuit must itself close timing at some period
            tcs_after = build_constraints(removed_circ, ref_lib, cfg)
            free = optimize_schedule(tcs_after, ref_lib, cfg)
            assert sta_check(removed_circ, ref_lib, free).min_slack >= free.slack - 1e-6
            # latency comparison applies when the baseline schedule still
            # verifies on the rewritten circuit and its frequency is pinned
            baseline_after = sta_check(removed_circ, ref_lib, baseline)
            if baseline_after.min_slack is not None and baseline_after.min_slack >= 0.0:
                pinned = OptimizationConfig(
                    t_min_override=baseline.period, t_max_override=baseline.period
                )
                fixed = optimize_schedule(tcs_after, ref_lib, pinned)
                assert fixed.latency <= baseline.latency + 1e-6


def test_criterion_10_performance(ref_lib):
    with criterion(10, "1000-row, width-20 circuit schedules in < 1 s"):
        c = generate_circuit(rows=1000, width=20, seed=1, lib=ref_lib)
        cfg = OptimizationConfig()
        tcs = build_constraints(c, ref_lib, cfg)
        start = time.perf_counter()
        sched = optimize_schedule(tcs, ref_lib, cfg)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f} s"
        rep = sta_check(c, ref_lib, sched)
        assert rep.min_slack >= sched.slack - 1e-6
