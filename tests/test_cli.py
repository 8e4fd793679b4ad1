import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from aqfpopt import cli
from aqfpopt.bufferopt import remove_buffers
from aqfpopt.cli import main
from aqfpopt.ingest import parse_circuit, parse_report, serialize_circuit, serialize_library
from aqfpopt.model import Diagnostic, ValidationError, validate_circuit


@pytest.fixture
def workdir(tmp_path, ref_lib):
    lib_path = tmp_path / "ref.qlib.json"
    lib_path.write_text(serialize_library(ref_lib))
    return tmp_path, lib_path


def gen(tmp_path, lib_path, name, **kw):
    out = tmp_path / name
    argv = ["gen", "--rows", str(kw.get("rows", 6)), "--width", str(kw.get("width", 3)),
            "--seed", str(kw.get("seed", 7)), "--out", str(out), "--lib", str(lib_path)]
    if kw.get("chain_prob"):
        argv += ["--chain-prob", str(kw["chain_prob"])]
    if kw.get("skip_prob"):
        argv += ["--skip-prob", str(kw["skip_prob"])]
    assert main(argv) == 0
    return out


class TestGen:
    def test_output_parses_and_validates(self, workdir, ref_lib):
        tmp_path, lib_path = workdir
        out = gen(tmp_path, lib_path, "a.qc.json", rows=2, width=1)
        circuit = parse_circuit(out.read_text())
        assert validate_circuit(circuit, ref_lib) == []

    def test_deterministic_bytes(self, workdir):
        tmp_path, lib_path = workdir
        a = gen(tmp_path, lib_path, "a.qc.json", rows=50, width=20, seed=1)
        b = gen(tmp_path, lib_path, "b.qc.json", rows=50, width=20, seed=1)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, workdir):
        tmp_path, lib_path = workdir
        a = gen(tmp_path, lib_path, "a.qc.json", seed=1)
        b = gen(tmp_path, lib_path, "b.qc.json", seed=2)
        assert a.read_bytes() != b.read_bytes()

    def test_generated_circuits_are_schedulable(self, workdir, capsys):
        tmp_path, lib_path = workdir
        for seed in range(12):
            out = gen(tmp_path, lib_path, f"s{seed}.qc.json", rows=5, width=2, seed=seed,
                      chain_prob=0.5, skip_prob=0.3)
            code = main(["optimize", "--circuit", str(out), "--lib", str(lib_path)])
            assert code == 0, capsys.readouterr()

    def test_benchmark_style_output_is_pinned(self, capsys):
        # The benchmark generates its inputs with this generator and writer,
        # so a change to the random stream or to the file layout would change
        # every workload's circuits. It fails here first.
        capsys.readouterr()
        assert main(["gen", "--rows", "40", "--width", "6", "--seed", "3", "--chain-prob", "0.5",
                     "--skip-prob", "0.3"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "aaca567828b9309e7925b9a4b8130294a19e7ae63e05181d892f95d772267b72"

    def test_generator_soundness_over_100_seeds(self, ref_lib):
        from aqfpopt.cli import generate_circuit
        from aqfpopt.model import OptimizationConfig
        from aqfpopt.solver import optimize_schedule
        from aqfpopt.timing import build_constraints, sta_check

        rng = __import__("random").Random(100)
        cfg = OptimizationConfig()
        for seed in range(100):
            c = generate_circuit(
                rows=rng.randint(2, 7),
                width=rng.randint(1, 3),
                seed=seed,
                chain_prob=rng.choice([0.0, 0.5]),
                skip_prob=rng.choice([0.0, 0.3]),
                lib=ref_lib,
            )
            sched = optimize_schedule(build_constraints(c, ref_lib, cfg), ref_lib, cfg)
            rep = sta_check(c, ref_lib, sched)
            assert rep.min_slack is None or rep.min_slack >= sched.slack - 1e-6


#: gen sizes and probabilities: below range, non-finite, above range and valid.
GEN_SIZES = st.sampled_from(["-3", "0", "1", "3"])
GEN_PROBS = st.sampled_from(["nan", "inf", "-inf", "-0.5", "0", "0.5", "1", "1.5"])


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=GEN_SIZES, width=GEN_SIZES, chain_prob=GEN_PROBS, skip_prob=GEN_PROBS)
def test_gen_arguments_end_in_a_diagnostic(capsys, rows, width, chain_prob, skip_prob):
    args = {"rows": rows, "width": width, "chain_prob": chain_prob, "skip_prob": skip_prob}
    bad = sorted(name for name, value in args.items()
                 if not (int(value) >= 1 if name in ("rows", "width") else 0 <= float(value) <= 1))
    capsys.readouterr()
    code = main(["gen", *(f"--{name.replace('_', '-')}={value}" for name, value in args.items())])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert code == (1 if bad else 0), err
    assert sorted(re.findall(r"^\[INVALID_CONFIG\] (\w+): \S", err, re.M)) == bad
    if not bad:
        parse_circuit(out)


class TestOptimizeVerify:
    def test_round_trip(self, workdir, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=6, width=3, seed=3)
        report_path = tmp_path / "c.report.json"
        code = main(["optimize", "--circuit", str(circ), "--lib", str(lib_path),
                     "--out", str(report_path), "--priority", "period,latency,slack"])
        assert code == 0
        table = capsys.readouterr().out
        assert "frequency" in table and "5 GHz" in table
        report = parse_report(report_path.read_text())
        assert report["frequency_ghz"] == pytest.approx(5.0)
        assert report["manifest"]["config"]["priority"] == ["period", "latency", "slack"]
        assert report["manifest"]["timings_s"]

        assert main(["verify", "--circuit", str(circ), "--lib", str(lib_path),
                     "--schedule", str(report_path)]) == 0

    @staticmethod
    def optimize_discontinuous(tmp_path, fixture_library, two_row_circuit):
        """Optimize with a library whose rd jumps; returns the jump warnings on stderr."""
        lib_path = tmp_path / "fixture.qlib.json"
        lib_path.write_text(serialize_library(fixture_library))
        circ_path = tmp_path / "c.qc.json"
        circ_path.write_text(serialize_circuit(two_row_circuit))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(["optimize", "--circuit", str(circ_path), "--lib", str(lib_path)]) == 0
        text = err.getvalue()
        err.close()  # a log bound to this stream would fail on a later call
        assert "Logging error" not in text
        return [line for line in text.splitlines() if "PWL_DISCONTINUITY" in line]

    def test_library_warnings_logged_once(self, tmp_path, fixture_library, two_row_circuit):
        jumps = self.optimize_discontinuous(tmp_path, fixture_library, two_row_circuit)
        assert sorted(jumps) == sorted(set(jumps))
        assert {m.split(":")[1].strip() for m in jumps} == {
            "[PWL_DISCONTINUITY] buffer.rd",
            "[PWL_DISCONTINUITY] majority3.rd",
        }
        assert all(m.startswith("WARNING aqfpopt: ") for m in jumps)

    def test_each_call_logs_to_its_own_stderr(self, tmp_path, fixture_library, two_row_circuit):
        first = self.optimize_discontinuous(tmp_path, fixture_library, two_row_circuit)
        second = self.optimize_discontinuous(tmp_path, fixture_library, two_row_circuit)
        assert len(first) == 2 and second == first

    def test_smin_respected(self, workdir):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", seed=5)
        report_path = tmp_path / "c.report.json"
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path),
                     "--out", str(report_path), "--smin", "5"]) == 0
        report = parse_report(report_path.read_text())
        assert report["min_slack_ps"] >= 5.0 - 1e-6
        assert report["slack_ps"] >= 5.0 - 1e-9

    def test_tampered_schedule_fails_verify(self, workdir, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", seed=11)
        report_path = tmp_path / "c.report.json"
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        slack = report["min_slack_ps"]
        report["row_deltas_ps"][0] -= slack + 1.0
        report_path.write_text(json.dumps(report))
        code = main(["verify", "--circuit", str(circ), "--lib", str(lib_path),
                     "--schedule", str(report_path)])
        assert code == 3
        assert "violation" in capsys.readouterr().err

    def test_wrong_library_fails(self, workdir, fixture_library, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", seed=2)
        report_path = tmp_path / "c.report.json"
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path),
                     "--out", str(report_path)]) == 0
        other = tmp_path / "other.qlib.json"
        other.write_text(serialize_library(fixture_library))
        code = main(["verify", "--circuit", str(circ), "--lib", str(other),
                     "--schedule", str(report_path)])
        assert code != 0

    def test_row_count_mismatch_is_schema_error(self, workdir, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=6, seed=2)
        other = gen(tmp_path, lib_path, "d.qc.json", rows=4, seed=2)
        report_path = tmp_path / "c.report.json"
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path),
                     "--out", str(report_path)]) == 0
        code = main(["verify", "--circuit", str(other), "--lib", str(lib_path),
                     "--schedule", str(report_path)])
        assert code == 1
        assert "SCHEMA_MISMATCH" in capsys.readouterr().err

    def test_infeasible_exit_code(self, workdir, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", seed=9)
        code = main(["optimize", "--circuit", str(circ), "--lib", str(lib_path),
                     "--tmin", "1000"])
        assert code == 2
        assert "INFEASIBLE" in capsys.readouterr().err

    def test_missing_input_is_input_error(self, workdir, capsys):
        tmp_path, lib_path = workdir
        code = main(["optimize", "--circuit", str(tmp_path / "missing.qc.json"),
                     "--lib", str(lib_path)])
        assert code == 1

    @pytest.mark.parametrize("period", [150.0, 180.0, 190.0])
    def test_period_below_library_floor_fails_verify(self, workdir, capsys, period):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", seed=4)
        report_path = tmp_path / "c.report.json"
        io = ["--circuit", str(circ), "--lib", str(lib_path)]
        assert main(["optimize", *io, "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        report["period_ps"] = period
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["verify", *io, "--schedule", str(report_path)]) == 3
        assert "[PERIOD_OUT_OF_RANGE] schedule: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["optimize", "sweep", "gen"])
    def test_unwritable_out_is_io_error(self, workdir, capsys, command):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json")
        io = ["--circuit", str(circ), "--lib", str(lib_path)]
        argv = {"optimize": ["optimize", *io], "sweep": ["sweep", *io, "--configs", "table1a"],
                "gen": ["gen", "--rows", "3", "--width", "2", "--lib", str(lib_path)]}[command]
        out = tmp_path / "missing" / "out.json"
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"[IO_ERROR] {out}: " in err
        assert "Traceback" not in err

    def test_verify_after_remove_buffers(self, workdir):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=8, width=2, seed=13, chain_prob=0.9)
        report_path = tmp_path / "c.report.json"
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path),
                     "--remove-buffers", "--out", str(report_path)]) == 0
        report = parse_report(report_path.read_text())
        assert report["buffers_total"] > 0
        assert report["buffers_removed"] > 0
        assert main(["verify", "--circuit", str(circ), "--lib", str(lib_path),
                     "--schedule", str(report_path)]) == 0


class TestFixtureCircuit:
    def test_two_row_fixture_reaches_10ghz(self, tmp_path, two_row_circuit, fixture_library, capsys):
        circ_path = tmp_path / "fix2row.qc.json"
        circ_path.write_text(serialize_circuit(two_row_circuit))
        lib_path = tmp_path / "fix.qlib.json"
        lib_path.write_text(serialize_library(fixture_library))
        report_path = tmp_path / "fix.report.json"
        code = main(["optimize", "--circuit", str(circ_path), "--lib", str(lib_path),
                     "--out", str(report_path), "--priority", "period,latency,slack"])
        assert code == 0
        report = parse_report(report_path.read_text())
        assert report["frequency_ghz"] == pytest.approx(10.0, abs=1e-9)
        assert report["latency_ps"] == pytest.approx(18.0, abs=1e-4)
        assert report["min_slack_ps"] == pytest.approx(0.0, abs=1e-4)

    def test_reports_deterministic_apart_from_timings(self, workdir):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=7, width=3, seed=31)
        reports = []
        for k in range(2):
            out = tmp_path / f"r{k}.report.json"
            assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path),
                         "--out", str(out), "--smin", "2"]) == 0
            doc = json.loads(out.read_text())
            doc["manifest"].pop("timings_s")
            reports.append(json.dumps(doc, sort_keys=True))
        assert reports[0] == reports[1]


class TestSweep:
    def test_priority_presets_ordering(self, workdir, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=7, width=3, seed=21)
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--circuit", str(circ), "--lib", str(lib_path),
                     "--configs", "table1a,table1b,table1c", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())["results"]
        by_name = {row["config"]: row for row in data}
        assert by_name["table1b"]["latency_ps"] >= by_name["table1a"]["latency_ps"] - 1e-6
        assert by_name["table1b"]["min_slack_ps"] >= 5.0 - 1e-6
        assert by_name["table1c"]["min_slack_ps"] >= by_name["table1a"]["min_slack_ps"] - 1e-6

    def test_table3_pairs_baseline_and_removal(self, workdir, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=9, width=2, seed=8, chain_prob=0.9)
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--circuit", str(circ), "--lib", str(lib_path),
                     "--configs", "table3", "--out", str(out)])
        assert code == 0
        row = json.loads(out.read_text())["results"][0]
        assert row["buffers_saved_pct"] > 0
        assert "baseline" in row and "phase_skipping" in row

    def test_max_skip_reaches_every_preset(self, workdir, ref_lib, capsys):
        # Removal with --max-skip 3 makes span-3 skips on this circuit, which
        # the presets' constraints must accept, as optimize's do.
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=9, width=2, seed=8, chain_prob=0.9)
        removed, _ = remove_buffers(parse_circuit(circ.read_text()), ref_lib, max_skip=3)
        row = {g.id: g.row for g in removed.gates}
        assert max(row[k.dst] - row[k.src] for k in removed.connections) == 3
        removed_path = tmp_path / "removed.qc.json"
        removed_path.write_text(serialize_circuit(removed))
        # table3 removes buffers itself; table1a gets the circuit removal made.
        for name, path, flags in (("table3", circ, ["--remove-buffers"]), ("table1a", removed_path, [])):
            io = ["--circuit", str(path), "--lib", str(lib_path), "--max-skip", "3"]
            report_path, sweep_path = tmp_path / f"{name}.report.json", tmp_path / f"{name}.sweep.json"
            assert main(["optimize", *io, *flags, "--out", str(report_path)]) == 0
            capsys.readouterr()
            assert main(["sweep", *io, "--configs", name, "--out", str(sweep_path)]) == 0
            assert "UNSUPPORTED_SKIP" not in capsys.readouterr().err
            report = parse_report(report_path.read_text())
            row = json.loads(sweep_path.read_text())["results"][0]
            row = row.get("phase_skipping", row)
            assert row["frequency_ghz"] == pytest.approx(report["frequency_ghz"])
            assert row["latency_ps"] == pytest.approx(report["latency_ps"])

    def test_max_skip_below_one_rejected(self, workdir, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json")
        for configs in ("table1a", "table3"):
            capsys.readouterr()
            assert main(["sweep", "--circuit", str(circ), "--lib", str(lib_path), "--configs", configs,
                         "--max-skip", "0"]) == 1
            assert "[INVALID_CONFIG] max_skip: " in capsys.readouterr().err

    def test_empty_configs_usage_error(self, workdir):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json")
        assert main(["sweep", "--circuit", str(circ), "--lib", str(lib_path),
                     "--configs", ""]) == 1

    def test_unknown_preset_usage_error(self, workdir, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json")
        assert main(["sweep", "--circuit", str(circ), "--lib", str(lib_path),
                     "--configs", "table9"]) == 1
        assert "unknown presets" in capsys.readouterr().err


class TestUsage:
    def test_bad_priority_rejected(self, workdir):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json")
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path),
                     "--priority", "period,period,slack"]) == 1

    @pytest.mark.parametrize("flag", [["--smin", "nan"], ["--tmin", "nan"], ["--tau", "nan"],
                                      ["--smax", "inf"]])
    def test_non_finite_setting_rejected(self, workdir, capsys, flag):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json")
        capsys.readouterr()
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path), *flag]) == 1
        assert "[INVALID_CONFIG]" in capsys.readouterr().err

    def test_missing_subcommand_args(self):
        assert main(["optimize"]) == 1

    @pytest.mark.parametrize("caller_gc", [True, False])
    @pytest.mark.parametrize("outcome,code", [(0, 0), (2, 2), (ValidationError([Diagnostic("X", "y", "z")]), 1)],
                             ids=["exit0", "exit2", "exit1"])
    def test_command_runs_with_gc_paused(self, monkeypatch, caller_gc, outcome, code):
        seen = []

        def fake_optimize(args):
            seen.append(gc.isenabled())
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(cli, "cmd_optimize", fake_optimize)
        was = gc.isenabled()
        (gc.enable if caller_gc else gc.disable)()
        try:
            assert main(["optimize", "--circuit", "c.qc.json", "--lib", "l.qlib.json"]) == code
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]
        assert after is caller_gc

    def test_log_env_accepted(self, workdir, monkeypatch):
        tmp_path, lib_path = workdir
        monkeypatch.setenv("QPRO_LOG", "debug")
        circ = gen(tmp_path, lib_path, "c.qc.json")
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path)]) == 0


NAN = float("nan")

#: (file, path into its JSON document, new value, expected exit code). Each
#: case once ended in a traceback or a wrong exit code.
MALFORMED = [
    ("circuit", ("gates", 0, "clock_offset_ps"), NAN, 1),
    ("circuit", ("gates", 0, "row"), "x", 1),
    ("circuit", ("gates", 0, "row"), 1.7, 1),
    ("circuit", ("connections", 0, "length_um"), None, 1),
    ("circuit", ("gates",), 5, 1),
    ("lib", ("cells", "buffer", "c2q", 0, 1), NAN, 1),
    ("lib", ("t_min_ps",), "x", 1),
    ("report", ("period_ps",), NAN, 1),
    ("report", ("period_ps",), "x", 1),
    ("report", ("row_deltas_ps",), 5, 1),
    ("report", ("row_deltas_ps", 0), NAN, 3),
]


def set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def run_flow(files):
    """``optimize`` on the circuit and library, then ``verify`` on the report."""
    io = ["--circuit", str(files["circuit"]), "--lib", str(files["lib"])]
    optimized = main(["optimize", *io, "--out", str(files["report"])])
    return optimized, main(["verify", *io, "--schedule", str(files["report"])])


class TestMalformedInput:
    @pytest.mark.parametrize("target,path,value,exit_code", MALFORMED,
                             ids=[f"{t}-{'.'.join(map(str, p))}-{v!r}" for t, p, v, _ in MALFORMED])
    def test_diagnostic_and_stable_exit(self, workdir, capsys, target, path, value, exit_code):
        tmp_path, lib_path = workdir
        files = {"circuit": gen(tmp_path, lib_path, "c.qc.json", rows=4, width=2, seed=1),
                 "lib": lib_path, "report": tmp_path / "c.report.json"}
        assert run_flow(files) == (0, 0)
        doc = json.loads(files[target].read_text())
        set_path(doc, path, value)
        files[target].write_text(json.dumps(doc))
        capsys.readouterr()
        io = ["--circuit", str(files["circuit"]), "--lib", str(lib_path)]
        if target == "report":
            code = main(["verify", *io, "--schedule", str(files["report"])])
        else:
            code = main(["optimize", *io])
        err = capsys.readouterr().err
        assert code == exit_code, err
        assert re.search(r"^\[[A-Z_]+\] \S+: \S", err, re.M), err
        assert "Traceback" not in err


#: Runs a weighted and a latency-first optimize on the circuit and library
#: named in argv, then checks that numpy was never imported.
SOLVE_WITHOUT_NUMPY = """
import sys
from aqfpopt.cli import main
io = ["--circuit", sys.argv[1], "--lib", sys.argv[2]]
assert main(["optimize", *io, "--tau", "1"]) == 0
assert main(["optimize", *io, "--priority", "latency,period,slack"]) == 0
assert "numpy" not in sys.modules
"""


def test_import_leaves_numpy_unloaded(workdir):
    tmp_path, lib_path = workdir
    circ = gen(tmp_path, lib_path, "c.qc.json", skip_prob=0.5)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [sys.executable, "-c", "import aqfpopt.cli, sys; assert 'numpy' not in sys.modules"],
        env=env, check=True,
    )
    subprocess.run(
        [sys.executable, "-c", SOLVE_WITHOUT_NUMPY, str(circ), str(lib_path)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )


# Values swapped in by the fuzzer: wrong JSON types, non-finite numbers and
# numbers of the wrong sign or kind.
JUNK = st.sampled_from([NAN, math.inf, -math.inf, "x", None, True, [], {}, 5, -1, 0, 1.7])

# Solver settings for the fuzzed optimize: one of the six lexicographic
# orders, or weighted mode with one to three finite non-negative weights.
PRIORITY_FLAGS = st.sampled_from(list(itertools.permutations(("period", "latency", "slack"))))
WEIGHT_FLAGS = st.lists(
    st.tuples(st.sampled_from(["--tau", "--sigma", "--lambda"]),
              st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=3, unique_by=lambda flag: flag[0],
)
SOLVER_FLAGS = st.one_of(
    PRIORITY_FLAGS.map(lambda order: ["--priority", ",".join(order)]),
    WEIGHT_FLAGS.map(lambda flags: [x for name, value in flags for x in (name, repr(value))]),
)


def paths_of(doc, prefix=()):
    """Every key path into a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths_of(value, prefix + (key,))


@pytest.fixture(scope="module")
def fuzz_seed_docs(tmp_path_factory, ref_lib):
    """Circuit, library and report documents of one successful small run."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    files = {"circuit": tmp_path / "c.qc.json", "lib": tmp_path / "ref.qlib.json",
             "report": tmp_path / "c.report.json"}
    files["lib"].write_text(serialize_library(ref_lib))
    assert main(["gen", "--rows", "4", "--width", "2", "--seed", "3", "--chain-prob", "0.5",
                 "--skip-prob", "0.5", "--lib", str(files["lib"]), "--out", str(files["circuit"])]) == 0
    assert run_flow(files) == (0, 0)
    return {name: json.loads(path.read_text()) for name, path in files.items()}


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_inputs_end_in_a_stable_exit_code(fuzz_seed_docs, tmp_path, capsys, data):
    docs = json.loads(json.dumps(fuzz_seed_docs))
    for _ in range(data.draw(st.integers(1, 3))):
        target = data.draw(st.sampled_from(sorted(docs)))
        path = data.draw(st.sampled_from(sorted(paths_of(docs[target]), key=str)))
        parent = docs[target]
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JUNK)
    solver_flags = data.draw(SOLVER_FLAGS)
    files = {name: tmp_path / f"fuzz.{name}.json" for name in docs}
    for name, path in files.items():
        path.write_text(json.dumps(docs[name]))
    io = ["--circuit", str(files["circuit"]), "--lib", str(files["lib"])]
    capsys.readouterr()
    for argv in (["verify", *io, "--schedule", str(files["report"])],
                 ["optimize", *io, *solver_flags, "--out", str(files["report"])]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        assert code == 0 or err.strip(), argv
    if code == 0:
        text = files["report"].read_text()
        assert "NaN" not in text and "Infinity" not in text
        assert main(["verify", *io, "--schedule", str(files["report"])]) == 0
