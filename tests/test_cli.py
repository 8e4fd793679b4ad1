import ast
import contextlib
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import circuit_text, records
from aqfpopt import cli, optimize, solver, timing
from aqfpopt.bufferopt import remove_buffers
from aqfpopt.cli import main
from aqfpopt.generator import generate_circuit
from aqfpopt.ingest import READ_CHUNK, REPORT_BATCH, parse_circuit, parse_report, serialize_library
from aqfpopt.model import (
    Circuit,
    Connection,
    Diagnostic,
    Gate,
    InfeasibleScheduleError,
    OptimizationConfig,
    Schedule,
    ValidationError,
    validate_circuit,
)
from aqfpopt.solver import FIX_TOL
from aqfpopt.timing import TimingConstraintSet


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
    if kw.get("adversarial"):
        argv.append("--adversarial")
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

    def test_text_only_stdout(self, tmp_path):
        # A stream without a byte buffer, as a caller of main may install, gets the same text.
        argv = ["gen", "--rows", "3", "--width", "2"]
        assert main([*argv, "--out", str(tmp_path / "c.qc.json")]) == 0
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue() == (tmp_path / "c.qc.json").read_text()

    def test_stdout_bytes_equal_the_file(self, tmp_path):
        # gen writes to stdout a batch at a time, each in full, also where
        # stdout's byte stream is the raw file (-u).
        argv = [sys.executable, "-m", "aqfpopt.cli", "gen", "--rows", "300", "--width", "20"]
        path = tmp_path / "c.qc.json"
        subprocess.run([*argv, "--out", str(path)], env=process_env(), check=True)
        for changes in ({}, {"PYTHONUNBUFFERED": "1"}):
            proc = subprocess.run([*argv, "--out", "-"], env=process_env(**changes), capture_output=True, timeout=60)
            assert (proc.returncode, proc.stderr) == (0, b""), changes
            assert proc.stdout == path.read_bytes(), changes

    def test_generator_soundness_over_100_seeds(self, ref_lib):
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


#: Edits to an optimize report (field -> new value from the report) and the
#: fields verify then names in REPORT_MISMATCH lines, in order. Each figure
#: is checked to its tolerance: latency and both slacks to 1e-6 ps, the
#: frequency to a relative 1e-9.
REPORT_EDITS = {
    "falsified": ({"latency_ps": lambda r: 1, "slack_ps": lambda r: 40, "min_slack_ps": lambda r: 30,
                   "frequency_ghz": lambda r: 99}, ["latency_ps", "frequency_ghz", "min_slack_ps", "slack_ps"]),
    "latency-off": ({"latency_ps": lambda r: r["latency_ps"] + 2e-6}, ["latency_ps"]),
    "latency-within": ({"latency_ps": lambda r: r["latency_ps"] - 5e-7}, []),
    "frequency-off": ({"frequency_ghz": lambda r: r["frequency_ghz"] * (1 + 3e-9)}, ["frequency_ghz"]),
    "frequency-within": ({"frequency_ghz": lambda r: r["frequency_ghz"] * (1 - 3e-10)}, []),
    "min-slack-null": ({"min_slack_ps": lambda r: None}, ["min_slack_ps"]),
    "min-slack-off": ({"min_slack_ps": lambda r: r["min_slack_ps"] - 2e-6}, ["min_slack_ps"]),
    "min-slack-within": ({"min_slack_ps": lambda r: r["min_slack_ps"] + 5e-7}, []),
    "slack-above-sta": ({"slack_ps": lambda r: r["min_slack_ps"] + 2e-6}, ["slack_ps"]),
    "slack-below-sta": ({"slack_ps": lambda r: r["min_slack_ps"] - 5.0,
                         "manifest": lambda r: {**r["manifest"], "config": {**r["manifest"]["config"], "s_min": -10.0}}},
                        []),
}
MISMATCH_TEXT = {
    "latency_ps": r"\S+ ps, the row deltas sum to \S+ ps",
    "frequency_ghz": r"\S+ GHz, the period gives \S+ GHz",
    "min_slack_ps": r"(null|\S+ ps), the STA finds \S+ ps",
    "slack_ps": r"\S+ ps, above the STA minimum of \S+ ps",
}


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
        report = parse_report(report_path.read_text(), ())
        assert report["frequency_ghz"] == pytest.approx(5.0)
        assert report["manifest"]["config"]["priority"] == ["period", "latency", "slack"]
        assert report["manifest"]["timings_s"]

        assert main(["verify", "--circuit", str(circ), "--lib", str(lib_path),
                     "--schedule", str(report_path)]) == 0
        assert checker_failures(circ, lib_path, report_path, remove_buffers=False) == []

    @staticmethod
    def optimize_discontinuous(tmp_path, fixture_library, two_row_circuit):
        """Optimize with a library whose rd jumps; returns the jump warnings on stderr."""
        lib_path = tmp_path / "fixture.qlib.json"
        lib_path.write_text(serialize_library(fixture_library))
        circ_path = tmp_path / "c.qc.json"
        circ_path.write_text(circuit_text(two_row_circuit))
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
        report = parse_report(report_path.read_text(), ())
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
        report = parse_report(report_path.read_text(), ())
        assert report["buffers_total"] > 0
        assert report["buffers_removed"] > 0
        assert main(["verify", "--circuit", str(circ), "--lib", str(lib_path),
                     "--schedule", str(report_path)]) == 0
        assert checker_failures(circ, lib_path, report_path, remove_buffers=True) == []

    @pytest.mark.parametrize("flags", [[], ["--remove-buffers"]])
    def test_optimize_frees_what_later_phases_do_not_read(self, workdir, ref_lib, monkeypatch, flags):
        # optimize's peak memory relies on this: the STA runs without the
        # constraint set and, after removal, without the parsed circuit, and
        # the report is written with no circuit alive.
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=9, width=2, seed=4242, chain_prob=0.9)
        parsed = parse_circuit(circ.read_text())
        removed, plan = remove_buffers(parsed, ref_lib)
        assert plan.buffers_removed > 0
        circuit_name, gates = parsed.name, len(removed.gates) if flags else len(parsed.gates)
        del parsed, removed
        seen = {}

        def spy(module, name):
            fn = getattr(module, name)

            def wrapped(*args, **kwargs):
                objs = gc.get_objects()
                seen[name] = (sum(type(o) is TimingConstraintSet for o in objs),
                              [len(o.gates) for o in objs if type(o) is Circuit and o.name == circuit_name])
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)

        spy(timing, "sta_check")
        spy(optimize, "emit_report")
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path), *flags]) == 0
        assert seen["sta_check"] == (0, [gates])
        assert seen["emit_report"] == (0, [])

    @pytest.mark.parametrize("max_skip", [0, -1, None])
    def test_manifest_max_skip_below_one_rejected(self, workdir, capsys, max_skip):
        # optimize writes only integers >= 1, so a report claiming 0, -1 or
        # null is malformed; re-running buffer removal with it would report
        # false violations.
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=8, width=2, seed=13, chain_prob=0.9)
        report_path = tmp_path / "c.report.json"
        io = ["--circuit", str(circ), "--lib", str(lib_path)]
        assert main(["optimize", *io, "--remove-buffers", "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        report["manifest"]["config"]["max_skip"] = max_skip
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["verify", *io, "--schedule", str(report_path)]) == 1
        assert capsys.readouterr().err == "[INVALID_CONFIG] max_skip: max_skip must be an integer >= 1\n"

    @staticmethod
    def verify_edited(workdir, capsys, edit, flags=("--remove-buffers",)):
        """Exit code, stdout and stderr of verify on the removal-run report of a
        6x3 chain circuit (6 buffers, 4 removed at max_skip 2) after ``edit(report)``."""
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=6, width=3, seed=4, chain_prob=0.9)
        report_path = tmp_path / "c.report.json"
        io = ["--circuit", str(circ), "--lib", str(lib_path)]
        assert main(["optimize", *io, *flags, "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        edit(report)
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        code = main(["verify", *io, "--schedule", str(report_path)])
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("hold_mode", ["fast", None])
    def test_manifest_hold_mode_is_checked_as_a_config(self, workdir, capsys, hold_mode):
        code, out, err = self.verify_edited(workdir, capsys,
                                            lambda r: r["manifest"]["config"].update(hold_mode=hold_mode))
        assert (code, out, err) == (1, "", f"[INVALID_CONFIG] hold_mode: unknown mode {hold_mode!r}\n")

    @pytest.mark.parametrize("edit,line", [
        (lambda r: r["manifest"]["config"].update(s_min=True), "[INVALID_CONFIG] s_min: s_min must be a real number"),
        (lambda r: r["connections"][0].update(setup_slak_ps=-99.0),
         "[UNKNOWN_KEY] connections[0]: unexpected key 'setup_slak_ps'"),
    ], ids=["boolean-s-min", "misspelt-connection-key"])
    def test_mistyped_report_field_is_an_input_error(self, workdir, capsys, edit, line):
        # JSON true is no number, though Python takes it for 1; a misspelt key
        # next to the four of a connection is a typo, as in any other object.
        assert self.verify_edited(workdir, capsys, edit) == (1, "", line + "\n")

    def test_manifest_without_settings_verifies_under_the_defaults(self, workdir, capsys):
        def drop(report):
            config = report["manifest"]["config"]
            assert (config.pop("max_skip"), config.pop("hold_mode")) == (2, "reset-delay")

        code, out, err = self.verify_edited(workdir, capsys, drop)
        assert (code, err) == (0, "")
        assert out.startswith("schedule verifies: ")

    @pytest.mark.parametrize("settings,code,lines", [
        ({"t_min_override": 250, "s_min": 20, "s_max": 30}, 3,
         [r"\[PERIOD_OUT_OF_RANGE\] schedule: period 200 ps below the lower period bound 250 ps",
          r"\[SLACK_OUT_OF_RANGE\] schedule: slack \S+ ps below s_min 20 ps"]),
        ({"t_max_override": 150}, 3,
         [r"\[PERIOD_OUT_OF_RANGE\] schedule: period 200 ps above the upper period bound 150 ps"]),
        ({"s_min": -10, "s_max": -5}, 3, [r"\[SLACK_OUT_OF_RANGE\] schedule: slack \S+ ps above s_max -5 ps"]),
        ({"priority": ["slack", "latency", "period"], "tau": 2}, 0, []),
        ({"priority": ["period", "period", "slack"]}, 1,
         [r"\[INVALID_CONFIG\] priority: priority must order period, latency and slack exactly once each"]),
        ({"s_min": 20, "s_max": 10}, 1, [r"\[INVALID_CONFIG\] s_min: s_min must be <= s_max"]),
    ], ids=["floor-and-slack-window", "ceiling", "slack-ceiling", "other-settings", "bad-priority", "bad-window"])
    def test_every_recorded_setting_bounds_the_schedule(self, workdir, capsys, settings, code, lines):
        # A 12x3 circuit solved at 200 ps with a slack near 0, its manifest
        # edited to settings that optimize would have solved differently.
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=12, width=3, seed=2)
        report_path = tmp_path / "c.report.json"
        io = ["--circuit", str(circ), "--lib", str(lib_path)]
        assert main(["optimize", *io, "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["period_ps"] == 200.0 and abs(report["slack_ps"]) < 1e-6
        report["manifest"]["config"].update(settings)
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["verify", *io, "--schedule", str(report_path)]) == code
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == len(lines)
        for line, pattern in zip(err.splitlines(), lines):
            assert re.fullmatch(pattern, line), line
        assert out.startswith("schedule verifies: ") if code == 0 else out == ""

    @pytest.mark.parametrize("case", ["slack-and-name", "within-tolerance", "dropped", "swapped", "sink-renamed",
                                      "nan-slack"])
    def test_report_connections_must_be_the_stas(self, workdir, capsys, case):
        n = []

        def edit(report):
            conns = report["connections"]
            n.append(len(conns))
            if case == "slack-and-name":
                conns[0]["setup_slack_ps"] = -5
                conns[1]["src"] = "renamed"
            elif case == "within-tolerance":
                conns[0]["setup_slack_ps"] += 9e-7
                conns[-1]["hold_slack_ps"] -= 9e-7
            elif case == "dropped":
                conns.pop()
            elif case == "sink-renamed":
                conns[1]["dst"] = "renamed"
            elif case == "nan-slack":  # within FIX_TOL of nothing
                conns[2]["hold_slack_ps"] = math.nan
            else:
                conns[2], conns[3] = conns[3], conns[2]

        code, out, err = self.verify_edited(workdir, capsys, edit)
        if case == "within-tolerance":
            assert (code, err) == (0, "") and out.startswith("schedule verifies: ")
            return
        differ, count, first = {"slack-and-name": (2, n[0], 0), "dropped": (1, n[0] - 1, n[0] - 1),
                                "swapped": (2, n[0], 2), "sink-renamed": (1, n[0], 1), "nan-slack": (1, n[0], 2)}[case]
        assert (code, out) == (3, "")
        (line,) = err.splitlines()
        assert line.startswith(f"[REPORT_MISMATCH] connections: report says {differ} of {count} connections differ, "
                               f"first connections[{first}]: ")
        assert (f"connections[{first}]: no connection, the STA finds " in line) == (case == "dropped")
        if case == "slack-and-name":
            assert ", setup -5.0 ps, " in line  # an integer slack reads as the float it equals

    def test_verify_peaks_no_higher_than_optimize(self, workdir, capsys):
        # verify holds the circuit, the report's connections and the STA's
        # slacks; optimize holds the circuit and, through the solve, the
        # constraint table. With every slack a float column and every report
        # endpoint the circuit's own id string, verify's traced peak on a
        # 200x20 circuit reads about 0.87 of optimize's on Python 3.10-3.13;
        # with a float object per slack and a string per endpoint it read
        # about 1.3 times it.
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=200, width=20, seed=1000)
        report_path = tmp_path / "c.report.json"
        inputs = ["--circuit", str(circ), "--lib", str(lib_path)]
        commands = {"optimize": [*inputs, "--out", str(report_path)], "verify": [*inputs, "--schedule", str(report_path)]}
        for module in ("aqfpopt.optimize", "aqfpopt.verify"):  # a command's code loads before its trace
            importlib.import_module(module)
        vars(solver)  # runs the lazily imported solver's module body
        peaks = {}
        for command, argv in commands.items():
            tracemalloc.start()
            try:
                assert main([command, *argv]) == 0
                peaks[command] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["verify"] <= peaks["optimize"], peaks

    def test_verify_takes_no_hold_mode_flag(self, workdir, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", seed=4)
        report_path = tmp_path / "c.report.json"
        io = ["--circuit", str(circ), "--lib", str(lib_path)]
        assert main(["optimize", *io, "--out", str(report_path)]) == 0
        capsys.readouterr()
        assert main(["verify", *io, "--schedule", str(report_path), "--hold-mode", "dlplace"]) == 1
        assert "unrecognized arguments: --hold-mode dlplace" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,flags,found", [
        ("segment_index", 0, ["--remove-buffers"], "the period lies in segment 1"),
        ("buffers_total", 99, ["--remove-buffers"], "the re-applied removal gives 6"),
        ("buffers_removed", 98, ["--remove-buffers"], "the re-applied removal gives 4"),
        ("buffers_total", 6, [], "without removal it is 0"),
        ("buffers_removed", 4, [], "without removal it is 0"),
    ])
    def test_removal_and_segment_figures_must_match(self, workdir, capsys, field, value, flags, found):
        def falsify(report):
            assert report[field] != value
            report[field] = value

        code, out, err = self.verify_edited(workdir, capsys, falsify, flags)
        assert (code, out) == (3, "")
        assert err == f"[REPORT_MISMATCH] {field}: report says {value}, {found}\n"

    def test_verbose_prints_each_connection(self, workdir, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", seed=4, skip_prob=0.3)
        report_path = tmp_path / "c.report.json"
        capsys.readouterr()
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path), "--verbose",
                     "--out", str(report_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        connections = json.loads(report_path.read_text())["connections"]
        assert len(connections) > 5
        assert lines[-len(connections):] == [
            f"{e['src']} -> {e['dst']}: setup {e['setup_slack_ps']:.4g} ps, hold {e['hold_slack_ps']:.4g} ps"
            for e in connections
        ]

    def test_schedule_failing_sta_exits_2(self, workdir, capsys, monkeypatch):
        # A margin no slack reaches makes the STA reject the solved schedule.
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", seed=4, skip_prob=0.3)
        monkeypatch.setattr(timing, "STA_MARGIN", 1e9)
        capsys.readouterr()
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path)]) == 2
        assert re.fullmatch(r"\[STA_VIOLATION\] schedule: min slack \S+ ps\n", capsys.readouterr().err)

    def test_period_past_the_last_breakpoint_fails_verify(self, workdir, capsys):
        # Within FIX_TOL of t_max the range check passes, but no cell
        # function is defined there, so the STA cannot evaluate it.
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", seed=4)
        report_path = tmp_path / "c.report.json"
        io = ["--circuit", str(circ), "--lib", str(lib_path)]
        assert main(["optimize", *io, "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        report["period_ps"] = 300.0000005
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["verify", *io, "--schedule", str(report_path)]) == 3
        assert capsys.readouterr().err == (
            "[PERIOD_OUT_OF_RANGE] schedule: t=300.0000005 outside the valid interval (0.0, 300.0]\n"
        )

    @pytest.mark.parametrize("case", sorted(REPORT_EDITS))
    def test_report_figures_must_match_the_schedule(self, workdir, capsys, case):
        edits, fields = REPORT_EDITS[case]
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=6, width=3, seed=4, skip_prob=0.3)
        report_path = tmp_path / "c.report.json"
        io = ["--circuit", str(circ), "--lib", str(lib_path)]
        assert main(["optimize", *io, "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["min_slack_ps"] is not None
        report.update({field: edit(report) for field, edit in edits.items()})
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        code = main(["verify", *io, "--schedule", str(report_path)])
        out, err = capsys.readouterr()
        assert code == (3 if fields else 0), err
        assert [line.split(":")[0] for line in err.splitlines()] == [f"[REPORT_MISMATCH] {f}" for f in fields]
        for line, field in zip(err.splitlines(), fields):
            assert re.fullmatch(rf"\[REPORT_MISMATCH\] {field}: report says {MISMATCH_TEXT[field]}", line), line
        assert out == "" if fields else out.startswith("schedule verifies: ")

    def test_connection_free_report_claims_no_sta_slack(self, workdir, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=1, width=2)
        report_path = tmp_path / "c.report.json"
        io = ["--circuit", str(circ), "--lib", str(lib_path)]
        assert main(["optimize", *io, "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["connections"] == [] and report["min_slack_ps"] is None
        assert main(["verify", *io, "--schedule", str(report_path)]) == 0
        report["min_slack_ps"] = 0.0
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["verify", *io, "--schedule", str(report_path)]) == 3
        assert capsys.readouterr().err == (
            "[REPORT_MISMATCH] min_slack_ps: report says 0 ps, the STA finds none, the circuit has no connections\n"
        )

    @pytest.mark.parametrize("gen_kw,flags", [({}, []), ({"skip_prob": 0.4}, []),
                                              ({"chain_prob": 0.8}, ["--remove-buffers"])])
    def test_entry_and_list_order_leave_the_schedule(self, workdir, gen_kw, flags):
        # The same circuit with its gates and connections shuffled, and the
        # connections written before the gates, must get the same schedule.
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=12, width=4, seed=17, **gen_kw)
        doc = json.loads(circ.read_text())
        rng = random.Random(3)
        rng.shuffle(doc["gates"])
        rng.shuffle(doc["connections"])
        shuffled = tmp_path / "shuffled.qc.json"
        shuffled.write_text(json.dumps({"format_version": 1, "connections": doc["connections"],
                                        "gates": doc["gates"], "name": doc["name"], "num_rows": doc["num_rows"]}))
        a, b = (parse_circuit(path.read_text()) for path in (circ, shuffled))
        assert set(records(a.gates)) == set(records(b.gates)) and set(records(a.connections)) == set(records(b.connections))
        reports = []
        for path in (circ, shuffled):
            out = path.with_suffix(".report.json")
            assert main(["optimize", "--circuit", str(path), "--lib", str(lib_path), *flags, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        for key in ("period_ps", "latency_ps", "slack_ps"):
            assert reports[1][key] == pytest.approx(reports[0][key], abs=FIX_TOL)
        assert [sorted((e["src"], e["dst"]) for e in r["connections"]) for r in reports[1:]] == [
            sorted((e["src"], e["dst"]) for e in reports[0]["connections"])
        ]


#: verify's outcome per report case: exit code, and a pattern for each of
#: stdout and stderr. A circuit error is reported instead of a report error.
VERIFY_CASES = {
    "ok": (0, r"schedule verifies: min slack \S+ ps\n", ""),
    "malformed-report": (1, "", r"\[PARSE_ERROR\] line 1: Expecting value\n"),
    "missing-report": (1, "", r"\[IO_ERROR\] \S+: \[Errno 2\] [^\n]+\n"),
    "bad-circuit-and-report": (1, "", r"\[PARSE_ERROR\] document: top level must be an object\n"),
    "non-finite-deltas": (3, "", r"(\[STA_VIOLATION\] \S+: timing violation: [^\n]*(nan|inf)[^\n]*\n)+"),
    "falsified-figures": (3, "", r"(\[REPORT_MISMATCH\] [a-z_]+: report says [^\n]+\n){4}"),
}


@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_verify_gives_each_report_case_its_outcome(workdir, capsys, case):
    tmp_path, lib_path = workdir
    circ = gen(tmp_path, lib_path, "c.qc.json", rows=6, seed=4, skip_prob=0.3)
    report = tmp_path / "c.report.json"
    assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path), "--out", str(report)]) == 0
    if case in ("malformed-report", "bad-circuit-and-report"):
        report.write_text('{"period_ps": ')
    elif case == "missing-report":
        report.unlink()
    if case == "bad-circuit-and-report":
        circ.write_text("[]")
    elif case == "non-finite-deltas":
        doc = json.loads(report.read_text())
        doc["row_deltas_ps"][1:3] = [math.nan, math.inf]
        report.write_text(json.dumps(doc))
    elif case == "falsified-figures":
        doc = json.loads(report.read_text())
        doc.update(latency_ps=1, slack_ps=40, min_slack_ps=30, frequency_ghz=99)
        report.write_text(json.dumps(doc))
    code, out_pattern, err_pattern = VERIFY_CASES[case]
    capsys.readouterr()
    rc = main(["verify", "--circuit", str(circ), "--lib", str(lib_path), "--schedule", str(report)])
    out, err = capsys.readouterr()
    assert rc == code and re.fullmatch(out_pattern, out) and re.fullmatch(err_pattern, err), (rc, out, err)


class TestFixtureCircuit:
    def test_two_row_fixture_reaches_10ghz(self, tmp_path, two_row_circuit, fixture_library, capsys):
        circ_path = tmp_path / "fix2row.qc.json"
        circ_path.write_text(circuit_text(two_row_circuit))
        lib_path = tmp_path / "fix.qlib.json"
        lib_path.write_text(serialize_library(fixture_library))
        report_path = tmp_path / "fix.report.json"
        code = main(["optimize", "--circuit", str(circ_path), "--lib", str(lib_path),
                     "--out", str(report_path), "--priority", "period,latency,slack"])
        assert code == 0
        report = parse_report(report_path.read_text(), ())
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


def test_connection_free_circuit_has_no_slack(workdir, capsys):
    # One row, no connections: the STA has nothing to check, and every
    # command says so instead of printing a number.
    tmp_path, lib_path = workdir
    circ = gen(tmp_path, lib_path, "c.qc.json", rows=1, width=3)
    report_path, sweep_path = tmp_path / "c.report.json", tmp_path / "c.sweep.json"
    io = ["--circuit", str(circ), "--lib", str(lib_path)]
    assert main(["optimize", *io, "--out", str(report_path)]) == 0
    assert re.search(r"^min slack \(STA\)\s+n/a$", capsys.readouterr().out, re.M)
    report = json.loads(report_path.read_text())
    assert report["min_slack_ps"] is None and report["connections"] == []
    assert main(["verify", *io, "--schedule", str(report_path)]) == 0
    assert capsys.readouterr().out == "schedule verifies: min slack n/a\n"
    assert main(["sweep", *io, "--configs", "table1a,table3", "--out", str(sweep_path)]) == 0
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[2:]}
    assert rows["table1a"][3] == rows["baseline"][3] == rows["phase-skip"][3] == "n/a"
    table1a, table3 = json.loads(sweep_path.read_text())["results"]
    runs = [table1a, table3["baseline"], table3["phase_skipping"]]
    assert [run["min_slack_ps"] for run in runs] == [None] * 3


#: optimize runs whose reports are pinned: gen settings, library fixture,
#: optimize flags and the sha256 of the report written before its manifest.
PINNED_REPORTS = {
    "40x6": ({"rows": 40, "width": 6, "seed": 3}, "ref_lib", [],
             "2e47193edaba2415d2537525819cc4492f4d2c69bdb62abb8ac67af8729deb77"),
    "chains-remove-buffers": ({"rows": 40, "width": 6, "seed": 3, "chain_prob": 0.5}, "ref_lib",
                              ["--remove-buffers"], "e44f19573f88354178686b858bbd0763f286bc251122372d7ac9bde20c2f455e"),
    "skips-weighted-3seg": ({"rows": 40, "width": 6, "seed": 3, "skip_prob": 0.3}, "three_segment_library",
                            ["--tau", "1"], "8eed6349d5b0b238ad2fa750df4bbdf8c9be0bc0bcef4f692f371965a93e7570"),
}


@pytest.mark.parametrize("run", sorted(PINNED_REPORTS))
def test_optimize_report_bytes_are_pinned(request, tmp_path, run):
    # The parse, constraint build, solve and STA keep the order of every
    # float operation, so each report keeps its bytes; only the manifest,
    # which holds run timings, may differ between runs.
    gen_kw, lib_fixture, flags, digest = PINNED_REPORTS[run]
    lib_path, report_path = tmp_path / "lib.qlib.json", tmp_path / "c.report.json"
    lib_path.write_text(serialize_library(request.getfixturevalue(lib_fixture)))
    circ = gen(tmp_path, lib_path, "c.qc.json", **gen_kw)
    assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path), *flags,
                 "--out", str(report_path)]) == 0
    text = report_path.read_text()
    assert hashlib.sha256(text[:text.rindex(', "manifest": ')].encode()).hexdigest() == digest


#: sta_check runs whose slacks are pinned at period 200 ps and every row delta
#: 50 ps: gen's adversarial flag, hold mode and the sha256 of the repr of the
#: setup and hold slack columns.
PINNED_SLACKS = {
    "extracted-reset-delay": (False, "reset-delay",
                              "9c42387004daa0ba5378b7e7024519976bd63f9a91c405e1a474e83772589b0f"),
    "extracted-dlplace": (False, "dlplace",
                          "e11bc9ae06adda3a34c970aeee5f9b03891fbf571e3b700e9415d8cc90e6e862"),
    "adversarial-reset-delay": (True, "reset-delay",
                                "6156b406414efe8bb27b18c5c40d643b88fbf4f218e242d251fa33fb5c243156"),
    "adversarial-dlplace": (True, "dlplace",
                            "7e98c18ddbf290c94d3c36dbb725404730320db9d1349addcbc556c11632e09e"),
}


@pytest.mark.parametrize("run", sorted(PINNED_SLACKS))
def test_sta_slack_bits_are_pinned(workdir, ref_lib, run):
    # Adversarial connections carry no extracted delay, so each one's delay
    # is derived from its length; the pin holds the bits of both paths.
    adversarial, hold_mode, digest = PINNED_SLACKS[run]
    tmp_path, lib_path = workdir
    circuit = parse_circuit(gen(tmp_path, lib_path, "c.qc.json", rows=40, width=6, seed=3,
                                adversarial=adversarial).read_text())
    assert {prop is None for prop in circuit.connections.prop} == {adversarial}
    sched = Schedule(200.0, [50.0] * 39, 0.0, 1950.0)
    t = timing.sta_check(circuit, ref_lib, sched, hold_mode).entries
    columns = repr((list(t.setup_slack), list(t.hold_slack)))
    assert hashlib.sha256(columns.encode()).hexdigest() == digest


#: Input checks, each as the file edited, the path of the entry set in it, the
#: value set and the first line the run writes to stderr.
INPUT_CHECKS = {
    "zero-interconnect": ("lib", ("prop_ps_per_um",), 0,
                          "[INVALID_INTERCONNECT] library: prop_per_um must be > 0"),
    "inverted-period-range": ("lib", ("t_min_ps",), 400.0,
                              "[INVALID_PERIOD_RANGE] library: need 0 < t_min < t_max, got 400.0..300.0"),
    "zero-max-frequency": ("lib", ("max_frequency_ghz",), 0,
                           "[INVALID_PERIOD_RANGE] library: max_frequency must be > 0"),
    "cell-not-an-object": ("lib", ("cells", "buffer"), [], "[PARSE_ERROR] buffer: cell entry must be an object"),
    "negative-length": ("circuit", ("connections", 0, "length_um"), -1.0,
                        "[NEGATIVE_LENGTH] g0_5->g1_0: length must be >= 0"),
    "unknown-priority-mode": ("report", ("manifest", "config", "priority_mode"), "x",
                              "[INVALID_CONFIG] priority_mode: unknown mode 'x'"),
    "report-connection-without-src": ("report", ("connections", 7), {"dst": "g1_0", "setup_slack_ps": 1.0,
                                                                     "hold_slack_ps": 1.0},
                                      "[PARSE_ERROR] connections[7]: missing keys ['src']"),
    "report-string-slack": ("report", ("connections", 7, "setup_slack_ps"), "1",
                            "[PARSE_ERROR] connections[7]: setup_slack_ps must be a real number"),
    "report-connection-extra-key": ("report", ("connections", 7, "colour"), "blue",
                                    "[UNKNOWN_KEY] connections[7]: unexpected key 'colour'"),
    "report-connection-not-an-object": ("report", ("connections", 7), 5,
                                        "[PARSE_ERROR] report: connections must be a list of objects"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_each_input_check_names_its_fault(workdir, capsys, case):
    target, path, value, first_line = INPUT_CHECKS[case]
    tmp_path, lib_path = workdir
    files = {"circuit": gen(tmp_path, lib_path, "c.qc.json", rows=40, width=6, seed=3), "lib": lib_path,
             "report": tmp_path / "c.report.json"}
    io = ["--circuit", str(files["circuit"]), "--lib", str(lib_path)]
    assert main(["optimize", *io, "--out", str(files["report"])]) == 0
    doc = entry = json.loads(files[target].read_text())
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    files[target].write_text(json.dumps(doc))
    capsys.readouterr()
    command = ["verify", *io, "--schedule", str(files["report"])] if target == "report" else ["optimize", *io]
    assert main(command) == 1
    assert capsys.readouterr().err.splitlines()[0] == first_line


class TestConfigDefaults:
    """Every solver flag left out takes its ``OptimizationConfig`` field default."""

    @staticmethod
    def manifest_config(workdir, *flags):
        tmp_path, lib_path = workdir
        circ, report_path = gen(tmp_path, lib_path, "c.qc.json"), tmp_path / "c.report.json"
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path), *flags,
                     "--out", str(report_path)]) == 0
        return json.loads(report_path.read_text())["manifest"]["config"]

    @staticmethod
    def echo(cfg, remove_buffers=False):
        return {**cfg._asdict(), "priority": list(cfg.priority), "remove_buffers": remove_buffers}

    def test_no_flags_give_the_field_defaults(self, workdir, capsys):
        assert self.manifest_config(workdir) == self.echo(OptimizationConfig())

    def test_one_weight_selects_weighted_mode(self, workdir, capsys):
        config = self.manifest_config(workdir, "--tau", "1", "--remove-buffers")
        assert config == self.echo(OptimizationConfig(priority_mode="weighted"), remove_buffers=True)

    def test_each_flag_sets_its_field(self, workdir, capsys):
        flags = ["--priority", "slack,period,latency", "--lambda", "2", "--smin", "1", "--smax", "9",
                 "--tmin", "150", "--tmax", "290", "--hold-mode", "dlplace", "--max-skip", "3"]
        cfg = OptimizationConfig(priority=("slack", "period", "latency"), lam=2.0, priority_mode="weighted",
                                 s_min=1.0, s_max=9.0, t_min_override=150.0, t_max_override=290.0,
                                 hold_mode="dlplace", max_skip=3)
        assert self.manifest_config(workdir, *flags) == self.echo(cfg)

    def test_preset_rows_equal_optimize_with_their_flags(self, workdir, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=8, width=3, seed=5, skip_prob=0.4)
        io_flags = ["--circuit", str(circ), "--lib", str(lib_path)]
        out = tmp_path / "sweep.json"
        assert main(["sweep", *io_flags, "--configs", "table1a,table1b,table1c", "--out", str(out)]) == 0
        rows = {row.pop("config"): row for row in json.loads(out.read_text())["results"]}
        for name, flags in (("table1a", []), ("table1b", ["--smin", "5"]),
                            ("table1c", ["--priority", "period,slack,latency"])):
            report_path = tmp_path / f"{name}.report.json"
            assert main(["optimize", *io_flags, *flags, "--out", str(report_path)]) == 0
            report = json.loads(report_path.read_text())
            assert rows[name] == {key: report[key] for key in ("frequency_ghz", "latency_ps", "min_slack_ps")}


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
        # Each run's JSON object carries the slack its printed row shows.
        printed = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[2:]}
        for key, tag in (("baseline", "baseline"), ("phase_skipping", "phase-skip")):
            assert sorted(row[key]) == ["frequency_ghz", "latency_ps", "min_slack_ps"]
            assert f"{row[key]['min_slack_ps']:.2f}" == printed[tag][3]

    def test_max_skip_reaches_every_preset(self, workdir, ref_lib, capsys):
        # Removal with --max-skip 3 makes span-3 skips on this circuit, which
        # the presets' constraints must accept, as optimize's do.
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=9, width=2, seed=8, chain_prob=0.9)
        removed, _ = remove_buffers(parse_circuit(circ.read_text()), ref_lib, max_skip=3)
        row = dict(zip(removed.gates.id, removed.gates.row))
        assert max(row[dst] - row[src] for src, dst in zip(removed.connections.src, removed.connections.dst)) == 3
        removed_path = tmp_path / "removed.qc.json"
        removed_path.write_text(circuit_text(removed))
        # Each preset row is optimize with the matching flags. table3 removes
        # buffers itself; the others get the circuit removal made.
        for name, path, flags in (("table3", circ, ["--remove-buffers"]), ("table1a", removed_path, []),
                                  ("table1b", removed_path, ["--smin", "5"]),
                                  ("table1c", removed_path, ["--priority", "period,slack,latency"])):
            io = ["--circuit", str(path), "--lib", str(lib_path), "--max-skip", "3"]
            report_path, sweep_path = tmp_path / f"{name}.report.json", tmp_path / f"{name}.sweep.json"
            assert main(["optimize", *io, *flags, "--out", str(report_path)]) == 0
            capsys.readouterr()
            assert main(["sweep", *io, "--configs", name, "--out", str(sweep_path)]) == 0
            assert "UNSUPPORTED_SKIP" not in capsys.readouterr().err
            report = parse_report(report_path.read_text(), ())
            row = json.loads(sweep_path.read_text())["results"][0]
            if name == "table3":
                row = row["phase_skipping"]
            assert row["min_slack_ps"] == pytest.approx(report["min_slack_ps"])
            assert row["frequency_ghz"] == pytest.approx(report["frequency_ghz"])
            assert row["latency_ps"] == pytest.approx(report["latency_ps"])

    def test_presets_share_the_solves(self, workdir, monkeypatch, capsys):
        # table3's baseline is table1a's run, and each of the two circuits
        # gets its constraints built once.
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=9, width=2, seed=8, chain_prob=0.9)
        built, solves = [], []

        def counting_build(circuit, *args):
            built.append(circuit.gates.cell.count("buffer"))
            return build_constraints(circuit, *args)

        def counting_solve(*args):
            solves.append(1)
            return optimize_schedule(*args)

        build_constraints, optimize_schedule = timing.build_constraints, solver.optimize_schedule
        monkeypatch.setattr(timing, "build_constraints", counting_build)
        monkeypatch.setattr(solver, "optimize_schedule", counting_solve)
        assert main(["sweep", "--circuit", str(circ), "--lib", str(lib_path),
                     "--configs", "table1a,table1b,table1c,table3"]) == 0
        assert len(built) == 2 and built[0] > built[1]  # the parsed circuit, then the removed one
        assert 4 <= len(solves) <= 5

    def test_infeasible_table3_baseline_skips_removal(self, workdir, capsys):
        # Two parallel row-0->1 connections whose delays differ by more than
        # t_max leave no schedule; the buffer with two fanins would make
        # removal fail, but removal never runs after an infeasible baseline.
        tmp_path, lib_path = workdir
        gates = (Gate("a", "majority3", 0, 0.0), Gate("b", "majority3", 0, 0.0),
                 Gate("x", "majority3", 1, 1.0), Gate("y", "majority3", 1, 1.0),
                 Gate("buf", "buffer", 2, 2.0), Gate("z", "majority3", 3, 3.0))
        conns = (Connection("a", "x", 10.0, 5.0), Connection("b", "x", 10.0, 400.0),
                 Connection("a", "y", 10.0, 30.0), Connection("x", "buf", 10.0, 30.0),
                 Connection("y", "buf", 10.0, 30.0), Connection("buf", "z", 10.0, 30.0))
        circ = tmp_path / "c.qc.json"
        circ.write_text(circuit_text(Circuit("infeasible-twofanin", 4, gates, conns)))
        io = ["--circuit", str(circ), "--lib", str(lib_path)]
        assert main(["optimize", *io, "--remove-buffers"]) == 1
        assert capsys.readouterr().err.startswith("[MALFORMED_CHAIN] ")
        assert main(["optimize", *io]) == 2
        capsys.readouterr()
        assert main(["sweep", *io, "--configs", "table3"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[-1].split() == ["table3", "infeasible", "-", "-", "-"]
        assert "preset table3 failed: [INFEASIBLE] " in err and "MALFORMED_CHAIN" not in err

    @pytest.mark.parametrize("error", ["UNSUPPORTED_SKIP", "MALFORMED_CHAIN", "skipping-hop"])
    def test_table3_input_errors_exit_like_optimize(self, workdir, capsys, error):
        tmp_path, lib_path = workdir
        if error == "UNSUPPORTED_SKIP":
            circ, flags = gen(tmp_path, lib_path, "c.qc.json", rows=12, width=3, skip_prob=1.0), ["--max-skip", "1"]
        elif error == "MALFORMED_CHAIN":
            # A buffer with two fanins fits no chain.
            gates = (Gate("a", "majority3", 0, 0.0), Gate("b", "majority3", 0, 0.0),
                     Gate("buf", "buffer", 1, 1.0), Gate("d", "majority3", 2, 2.0))
            conns = (Connection("a", "buf", 10.0, 30.0), Connection("b", "buf", 10.0, 30.0),
                     Connection("buf", "d", 10.0, 30.0))
            circ, flags = tmp_path / "c.qc.json", []
            circ.write_text(circuit_text(Circuit("twofanin", 3, gates, conns)))
        else:
            # A chain hop that itself spans 3 rows is the skip it is, with or
            # without buffer removal.
            gates = (Gate("s", "majority3", 0, 0.0), Gate("b", "buffer", 3, 3.0), Gate("t", "majority3", 4, 4.0))
            conns = (Connection("s", "b", 10.0, 30.0), Connection("b", "t", 10.0, 30.0))
            circ, flags = tmp_path / "c.qc.json", []
            circ.write_text(circuit_text(Circuit("skiphop", 5, gates, conns)))
        io = ["--circuit", str(circ), "--lib", str(lib_path), *flags]
        capsys.readouterr()
        assert main(["optimize", *io, "--remove-buffers"]) == 1
        expected = capsys.readouterr().err
        if error == "skipping-hop":
            assert expected == "[UNSUPPORTED_SKIP] s->b: row span 3 exceeds the supported maximum 2\n"
            assert main(["optimize", *io]) == 1
            assert capsys.readouterr().err == expected
        else:
            assert expected.startswith(f"[{error}] ")
        assert main(["sweep", *io, "--configs", "table3"]) == 1
        assert capsys.readouterr().err == expected

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

    @pytest.mark.parametrize("flags", [["--smin", "9", "--smax", "5"], ["--tmin", "300", "--tmax", "250"]])
    def test_crossed_bounds_rejected(self, workdir, capsys, flags):
        # An empty slack or period range is a bad setting, not an infeasible circuit.
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json")
        capsys.readouterr()
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path), *flags]) == 1
        assert re.findall(r"^\[(\w+)\]", capsys.readouterr().err, re.M) == ["INVALID_CONFIG"]

    def test_missing_subcommand_args(self):
        assert main(["optimize"]) == 1

    @pytest.mark.parametrize("caller_gc", [True, False])
    @pytest.mark.parametrize("outcome,code", [(0, 0), (InfeasibleScheduleError([Diagnostic("X", "y", "z")]), 2),
                                              (ValidationError([Diagnostic("X", "y", "z")]), 1)],
                             ids=["exit0", "exit2", "exit1"])
    def test_command_runs_with_gc_paused(self, monkeypatch, caller_gc, outcome, code):
        seen = []

        def fake_optimize(args):
            seen.append(gc.isenabled())
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(optimize, "cmd_optimize", fake_optimize)
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
    ("report", ("frequency_ghz",), 0, 1),
    ("report", ("frequency_ghz",), "x", 1),
    ("report", ("min_slack_ps",), "x", 1),
    ("report", ("min_slack_ps",), math.inf, 1),
    ("report", ("connections",), 5, 1),
    ("report", ("connections", 0, "src"), None, 1),
    ("report", ("connections", 0, "setup_slack_ps"), "x", 1),
    ("report", ("manifest", "config", "priority"), "period", 1),
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


SRC = Path(__file__).resolve().parents[1] / "src"


def process_env(**changes):
    """Environment of a CLI child process: the package on PYTHONPATH, stdout
    block-buffered as without ``-u``, then ``changes``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    env.update(changes)
    return env


def run_module(*argv, **env):
    """``python -m aqfpopt.cli`` with ``argv``, to its end."""
    return subprocess.run([sys.executable, "-m", "aqfpopt.cli", *map(str, argv)], env=process_env(**env),
                          capture_output=True, text=True)


#: Runs main() on argv[1:] in process, then prints its exit code and which
#: of the lazily imported modules have run their code, as one JSON line.
LOADED_AFTER = """
import importlib.util, json, sys
from aqfpopt.cli import main
code = main(sys.argv[1:])
lazy = ("aqfpopt.solver", "aqfpopt.bufferopt")
print(json.dumps([code, [m for m in lazy if type(sys.modules[m]) is not importlib.util._LazyModule]]))
"""


#: A sitecustomize module: as the process exits, it prints the aqfpopt
#: modules in sys.modules, those of them whose code has not run, and whether
#: aqfpopt.cli was never imported by name.
MODULES_AT_EXIT = """
import atexit, importlib.util, json, sys

def report():
    loaded = sorted(name for name in sys.modules if name.startswith("aqfpopt"))
    unrun = [name for name in loaded if type(sys.modules[name]) is importlib.util._LazyModule]
    print(json.dumps([loaded, unrun, "aqfpopt.cli" not in sys.modules]))

atexit.register(report)
"""


class TestProcess:
    """The CLI as a process: which modules a command compiles, and how the
    process ends."""

    @staticmethod
    def loaded_after(*argv):
        proc = subprocess.run([sys.executable, "-c", LOADED_AFTER, *map(str, argv)],
                              env=process_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return tuple(json.loads(proc.stdout.splitlines()[-1]))

    @pytest.mark.parametrize("remove", [False, True])
    def test_verify_leaves_the_solver_unloaded(self, workdir, remove):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=6, width=2, seed=4, chain_prob=0.9)
        report = tmp_path / "c.report.json"
        io = ["--circuit", str(circ), "--lib", str(lib_path)]
        assert main(["optimize", *io, "--out", str(report), *["--remove-buffers"] * remove]) == 0
        # Only a report made with removal has verify load bufferopt.
        assert self.loaded_after("verify", *io, "--schedule", report) == (0, ["aqfpopt.bufferopt"] * remove)

    def test_gen_loads_neither_solver_nor_removal(self, tmp_path):
        assert self.loaded_after("gen", "--rows", 3, "--width", 2, "--out", tmp_path / "c.qc.json") == (0, [])

    @pytest.mark.parametrize("flags,loaded", [([], ["aqfpopt.solver"]),
                                              (["--remove-buffers"], ["aqfpopt.solver", "aqfpopt.bufferopt"])])
    def test_optimize_loads_what_it_runs_before_reading_inputs(self, tmp_path, flags, loaded):
        # The modules are loaded before the parse, so even a missing circuit
        # file finds them loaded.
        argv = ["optimize", "--circuit", tmp_path / "missing.qc.json", "--lib", tmp_path / "missing.qlib.json"]
        assert self.loaded_after(*argv, *flags) == (1, loaded)

    @pytest.mark.parametrize("command,own,absent,unrun", [
        ("optimize", "optimize", {"generator", "verify", "sweep"}, set()),
        ("verify", "verify", {"optimize", "generator", "sweep"}, {"solver"}),
        ("gen", "generator", {"optimize", "verify", "sweep"}, {"solver"}),
        ("sweep", "sweep", {"generator", "verify"}, set()),
    ])
    def test_each_command_loads_only_its_own_code(self, workdir, command, own, absent, unrun):
        # Each command's module is imported inside main, so the other
        # commands never compile it; under -m no command module imports
        # aqfpopt.cli, so cli.py runs once, as __main__.
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=6, width=2, seed=4, chain_prob=0.9)
        io = ["--circuit", circ, "--lib", lib_path]
        report = tmp_path / "c.report.json"
        assert main(["optimize", *map(str, io), "--out", str(report)]) == 0
        argv = {"optimize": ["optimize", *io, "--out", report], "verify": ["verify", *io, "--schedule", report],
                "gen": ["gen", "--rows", 3, "--width", 2, "--out", tmp_path / "g.qc.json"],
                "sweep": ["sweep", *io, "--configs", "table1a"]}[command]
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(MODULES_AT_EXIT)
        proc = run_module(*argv, PYTHONPATH=os.pathsep.join([str(site), str(SRC)]))
        assert proc.returncode == 0, proc.stderr
        loaded, not_run, cli_once = json.loads(proc.stdout.splitlines()[-1])
        assert f"aqfpopt.{own}" in loaded
        assert not {f"aqfpopt.{name}" for name in absent} & set(loaded)
        assert {f"aqfpopt.{name}" for name in unrun} <= set(not_run)
        assert cli_once

    def test_undecodable_input_ends_in_one_diagnostic(self, workdir):
        # A 0xff byte is no UTF-8, so the file cannot be read as text.
        tmp_path, lib_path = workdir
        files = {"circuit": gen(tmp_path, lib_path, "c.qc.json", rows=4, width=2, seed=2, chain_prob=0.5),
                 "lib": lib_path, "schedule": tmp_path / "c.report.json"}
        assert main(["optimize", "--circuit", str(files["circuit"]), "--lib", str(lib_path),
                     "--out", str(files["schedule"])]) == 0
        commands = {"optimize": ["circuit", "lib"], "verify": ["circuit", "lib", "schedule"],
                    "sweep": ["circuit", "lib"], "gen": ["lib"]}
        extra = {"sweep": ["--configs", "table1a"], "gen": ["--rows", "3", "--width", "2", "--out", "-"]}
        for name, path in files.items():
            data = path.read_bytes()
            bad = tmp_path / f"bad-{name}"
            bad.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
            for command, inputs in commands.items():
                if name not in inputs:
                    continue
                paths = [x for key in inputs for x in (f"--{key}", bad if key == name else files[key])]
                proc = run_module(command, *paths, *extra.get(command, []))
                case = (command, name, proc.stderr)
                assert proc.returncode == 1, case
                assert proc.stderr.startswith("[PARSE_ERROR] document: 'utf-8' codec can't decode byte 0xff"), case
                assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr, case
        # A circuit of several chunks with its bad byte past the first: the
        # position named is the byte's offset in the file, not in its chunk.
        data = gen(tmp_path, lib_path, "large.qc.json", rows=40, width=10, seed=2).read_bytes()
        at = 2 * READ_CHUNK + 1001
        assert len(data) > 2 * at
        bad = tmp_path / "bad-large"
        bad.write_bytes(data[:at] + b"\xff" + data[at:])
        for command, inputs in commands.items():
            if "circuit" in inputs:
                paths = [x for key in inputs for x in (f"--{key}", bad if key == "circuit" else files[key])]
                proc = run_module(command, *paths, *extra.get(command, []))
                line = f"[PARSE_ERROR] document: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte\n"
                assert (proc.returncode, proc.stderr) == (1, line), command
        # A JSON fault in the first chunk does not hide a bad byte past the
        # third: the whole text is read before the fault is named, so the byte
        # is found first, at its offset in the file.
        spoiled = data.replace(b'"name":', b'"name"', 1)
        at = 3 * READ_CHUNK + 1001
        assert spoiled.index(b'"name"') < READ_CHUNK
        bad.write_bytes(spoiled[:at] + b"\xff" + spoiled[at:])
        line = f"[PARSE_ERROR] document: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte\n"
        proc = run_module("optimize", "--circuit", bad, "--lib", lib_path)
        assert (proc.returncode, proc.stderr) == (1, line)
        # Through a pipe the offset is the byte's in the stream.
        proc = subprocess.run([sys.executable, "-m", "aqfpopt.cli", "optimize", "--circuit", "/dev/stdin",
                               "--lib", str(lib_path)], input=bad.read_bytes(), env=process_env(),
                              capture_output=True)
        assert (proc.returncode, proc.stderr) == (1, line.encode())

    def test_piped_circuit_reads_as_its_file(self, workdir):
        # /dev/stdin on a pipe cannot seek back. The parse reads each input
        # once, a chunk at a time, so a piped circuit or report, valid or
        # not, gives what its file gives.
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=40, width=10, seed=5)
        doc = json.loads(circ.read_text())
        doc["gates"][-1]["row"] = "3"
        bad = tmp_path / "bad.qc.json"
        bad.write_text(json.dumps(doc, indent=2))
        assert bad.read_text().index('"row": "3"') > READ_CHUNK
        runs = {}
        for name, path in (("good", circ), ("bad", bad)):
            for source in ("file", "pipe"):
                report = tmp_path / f"{name}-{source}.report.json"
                argv = [sys.executable, "-m", "aqfpopt.cli", "optimize", "--circuit",
                        path if source == "file" else "/dev/stdin", "--lib", lib_path, "--out", report]
                proc = subprocess.run(list(map(str, argv)), input=path.read_bytes() if source == "pipe" else None,
                                      env=process_env(), capture_output=True)
                doc = json.loads(report.read_text()) if report.exists() else {}
                doc.pop("manifest", None)  # it names the input path and holds the run's timings
                runs[name, source] = proc.returncode, proc.stdout, proc.stderr, doc
        assert runs["good", "pipe"] == runs["good", "file"]
        assert runs["good", "file"][0] == 0 and runs["good", "file"][3]["connections"]
        assert runs["bad", "pipe"] == runs["bad", "file"] == (1, b"", b"[PARSE_ERROR] g39_9: row must be an integer\n", {})
        report = tmp_path / "good-file.report.json"
        doc = json.loads(report.read_text())
        doc["connections"][-1]["hold_slack_ps"] = "1"
        bad_report = tmp_path / "bad.report.json"
        bad_report.write_text(json.dumps(doc))
        assert bad_report.read_text().index('"hold_slack_ps": "1"') > READ_CHUNK
        checks = {}
        for name, path in (("good", report), ("bad", bad_report)):
            for source in ("file", "pipe"):
                argv = [sys.executable, "-m", "aqfpopt.cli", "verify", "--circuit", circ, "--lib", lib_path,
                        "--schedule", path if source == "file" else "/dev/stdin"]
                proc = subprocess.run(list(map(str, argv)), input=path.read_bytes() if source == "pipe" else None,
                                      env=process_env(), capture_output=True)
                checks[name, source] = proc.returncode, proc.stdout, proc.stderr
        assert checks["good", "pipe"] == checks["good", "file"] and checks["good", "file"][0] == 0
        line = f"[PARSE_ERROR] connections[{len(doc['connections']) - 1}]: hold_slack_ps must be a real number\n"
        assert checks["bad", "pipe"] == checks["bad", "file"] == (1, b"", line.encode())

    def test_module_run_keeps_exit_codes_and_output(self, workdir, capsys):
        tmp_path, lib_path = workdir
        circ = gen(tmp_path, lib_path, "c.qc.json", rows=6, width=3, seed=3)
        io = ["--circuit", str(circ), "--lib", str(lib_path)]
        # Two connections into x whose delays differ by more than t_max.
        gates = (Gate("a", "majority3", 0, 0.0), Gate("b", "majority3", 0, 0.0), Gate("x", "majority3", 1, 1.0))
        conns = (Connection("a", "x", 10.0, 5.0), Connection("b", "x", 10.0, 400.0))
        infeasible = tmp_path / "infeasible.qc.json"
        infeasible.write_text(circuit_text(Circuit("infeasible", 2, gates, conns)))
        report, falsified = tmp_path / "c.report.json", tmp_path / "falsified.report.json"
        assert main(["optimize", *io, "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        doc["min_slack_ps"] += 1.0
        falsified.write_text(json.dumps(doc))
        cases = [
            (["gen", "--rows", "300", "--width", "20"], 0),  # far more than a pipe holds
            (["optimize", *io, "--verbose"], 0),
            (["optimize", *io, "--priority", "period"], 1),
            (["optimize", "--circuit", str(infeasible), "--lib", str(lib_path)], 2),
            (["verify", *io, "--schedule", str(falsified)], 3),
        ]
        capsys.readouterr()
        for argv, code in cases:
            assert main(argv) == code
            expected = capsys.readouterr()
            proc = run_module(*argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err), argv
            if argv[0] == "gen":  # unbuffered, gen writes to the raw file
                assert run_module(*argv, PYTHONUNBUFFERED="1").stdout == expected.out

    def test_atexit_handlers_still_run(self, tmp_path):
        (tmp_path / "sitecustomize.py").write_text("import atexit\natexit.register(print, 'atexit handler ran')\n")
        proc = run_module("gen", "--rows", 2, "--width", 2, PYTHONPATH=os.pathsep.join([str(tmp_path), str(SRC)]))
        assert proc.returncode == 0, proc.stderr
        text, _, last = proc.stdout.rstrip("\n").rpartition("\n")
        assert last == "atexit handler ran"
        assert parse_circuit(text).num_rows == 2

    def test_closed_stdout_pipe_ends_in_a_diagnostic(self):
        # Unbuffered, stdout's byte stream is the raw file, whose write takes
        # only part of the bytes once the reader closes the pipe.
        for changes in ({}, {"PYTHONUNBUFFERED": "1"}):
            proc = subprocess.Popen([sys.executable, "-m", "aqfpopt.cli", "gen", "--rows", "300", "--width", "20"],
                                    env=process_env(**changes), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            proc.stderr.close()
            assert (proc.wait(timeout=60), err) == (1, "[IO_ERROR] stdout: the reader closed the pipe\n"), changes

    def test_console_script_is_the_runner(self):
        tomllib = pytest.importorskip("tomllib")
        scripts = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]["scripts"]
        module, _, name = scripts["aqfpopt"].partition(":")
        assert getattr(importlib.import_module(module), name) is cli.run


def test_no_module_imports_the_cli():
    # Under ``python -m aqfpopt.cli`` the CLI runs as __main__; a module that
    # imported aqfpopt.cli by name would run cli.py a second time.
    importers = []
    for path in sorted((SRC / "aqfpopt").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module if not node.level else ".".join(filter(None, ("aqfpopt", node.module)))
                names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
            else:
                continue
            if "aqfpopt.cli" in names:
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


# Values swapped in by the fuzzer: wrong JSON types, non-finite numbers and
# numbers of the wrong sign or kind.
JUNK = st.sampled_from([NAN, math.inf, -math.inf, "x", None, True, [], {}, 5, -1, 0, 1.7])

# Solver settings for the fuzzed optimize: one of the six lexicographic
# orders, or weighted mode with one to three finite non-negative weights,
# some large enough to overflow the simplex tableau.
PRIORITY_FLAGS = st.sampled_from(list(itertools.permutations(("period", "latency", "slack"))))
WEIGHT_FLAGS = st.lists(
    st.tuples(st.sampled_from(["--tau", "--sigma", "--lambda"]),
              st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False) | st.sampled_from([1e10, 1e300, 1e307])),
    min_size=1, max_size=3, unique_by=lambda flag: flag[0],
)
SOLVER_FLAGS = st.one_of(
    PRIORITY_FLAGS.map(lambda order: ["--priority", ",".join(order)]),
    WEIGHT_FLAGS.map(lambda flags: [x for name, value in flags for x in (name, repr(value))]),
)


@pytest.mark.parametrize("weights", [["--tau", "1", "--sigma", "1e307"], ["--sigma", "1e10"]],
                         ids=["overflow", "past-last-breakpoint"])
def test_extreme_weights_end_in_a_diagnostic_or_a_verified_schedule(workdir, weights):
    # A weight of 1e307 would overflow the simplex tableau if the weighted
    # objective were not divided by its largest weight. At 1e10 the solved
    # period lands a rounding error past the library's last breakpoint,
    # where no timing is defined, so the STA could not evaluate it.
    tmp_path, lib_path = workdir
    circ = gen(tmp_path, lib_path, "c.qc.json", rows=4, width=2, seed=3, chain_prob=0.5, skip_prob=0.5)
    report = tmp_path / "c.report.json"
    io = ["--circuit", str(circ), "--lib", str(lib_path)]
    assert main(["optimize", *io, *weights, "--out", str(report)]) == 0
    assert main(["verify", *io, "--schedule", str(report)]) == 0


@pytest.mark.parametrize("rows,width,seed,weights", [(4, 2, 3, {"--sigma": 1e300}),
                                                     (20, 4, 1, {"--tau": 1.0, "--sigma": 1e10})],
                         ids=["sigma-1e300", "sigma-1e10"])
def test_large_weights_solve_as_their_scaled_copy(workdir, rows, width, seed, weights):
    # These weights broke the solver down before the weighted objective was
    # divided by its largest weight. Dividing them all by it first must give
    # the same schedule.
    tmp_path, lib_path = workdir
    circ = gen(tmp_path, lib_path, "c.qc.json", rows=rows, width=width, seed=seed)
    io = ["--circuit", str(circ), "--lib", str(lib_path)]
    full = dict({"--tau": 1.0, "--sigma": 1e-8, "--lambda": 1e-4}, **weights)  # the CLI's defaults
    largest = max(full.values())
    schedules = []
    for name, flags in (("large", full), ("scaled", {flag: w / largest for flag, w in full.items()})):
        report = tmp_path / f"{name}.report.json"
        argv = [x for flag, w in flags.items() for x in (flag, repr(w))]
        assert main(["optimize", *io, *argv, "--out", str(report)]) == 0
        assert main(["verify", *io, "--schedule", str(report)]) == 0
        doc = json.loads(report.read_text())
        schedules.append({key: doc[key] for key in ("period_ps", "row_deltas_ps", "slack_ps", "latency_ps")})
    assert schedules[0] == schedules[1]


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


#: A stderr line of a failed command: a ``[CODE] entity: message`` diagnostic
#: or a ``LEVEL aqfpopt: message`` log line.
STDERR_LINE = re.compile(r"\[[A-Z_]+\] \S+: \S.*|[A-Z]+ aqfpopt: \S.*")


def assert_diagnostic_lines(err):
    assert err.strip(), "a failed command wrote nothing to stderr"
    assert [line for line in err.splitlines() if not STDERR_LINE.fullmatch(line)] == [], err


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_failures_write_only_diagnostics(fuzz_seed_docs, tmp_path, capsys, data):
    # The inputs of test_fuzzed_inputs_end_in_a_stable_exit_code; each failed
    # command is checked line by line.
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
                 ["optimize", *io, *solver_flags, "--out", str(files["report"])],
                 ["sweep", *io, "--configs", "table1a,table3"]):
        if main(argv):
            assert_diagnostic_lines(capsys.readouterr().err)
        capsys.readouterr()


@pytest.mark.parametrize("case,code", [("unknown-preset", 1), ("no-preset", 1), ("sta-failure", 2)])
def test_usage_and_sta_failures_write_only_diagnostics(workdir, capsys, monkeypatch, case, code):
    tmp_path, lib_path = workdir
    io = ["--circuit", str(gen(tmp_path, lib_path, "c.qc.json", seed=4, skip_prob=0.3)), "--lib", str(lib_path)]
    if case == "sta-failure":
        monkeypatch.setattr(timing, "STA_MARGIN", 1e9)  # a margin no slack reaches
    argv = {"unknown-preset": ["sweep", *io, "--configs", "table9"], "no-preset": ["sweep", *io, "--configs", ""],
            "sta-failure": ["optimize", *io]}[case]
    capsys.readouterr()
    assert main(argv) == code
    assert_diagnostic_lines(capsys.readouterr().err)


def perfbench_checker():
    """``perfbench/checker.py``, which shares no code with the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"
    spec = importlib.util.spec_from_file_location("perfbench_checker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checker_failures(circ, lib_path, report_path, remove_buffers):
    """What ``perfbench/checker.py`` finds wrong with a default-settings report."""
    spec = {"mode": "lexicographic", "remove_buffers": remove_buffers, "s_min": 0.0, "s_max": 50.0, "max_skip": 2}
    texts = [Path(path).read_text() for path in (circ, lib_path, report_path)]
    return perfbench_checker().check_report(*texts, spec)[0]


def respellings(text: str) -> dict[str, str]:
    """The circuit document ``text`` in other valid spellings than the writer's, each of the same circuit."""
    doc = json.loads(text)

    def entries(respell):
        return {**doc, "gates": list(map(respell, doc["gates"])), "connections": list(map(respell, doc["connections"]))}

    def obj(pairs):
        return "{" + ", ".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in pairs) + "}"

    # Each entry spells its first key twice: a wrong value, then at its place the right one.
    repeated = [obj([(next(iter(e)), 0), *e.items()]) for e in doc["gates"] + doc["connections"]]
    gates, connections = repeated[:len(doc["gates"])], repeated[len(doc["gates"]):]
    head = {key: doc[key] for key in ("format_version", "name", "num_rows")}
    # The first gate spells its id twice: another gate's whole object, then its own id.
    object_id = obj([("id", doc["gates"][1]), *doc["gates"][0].items()])
    return {
        "keys-reversed": json.dumps(entries(lambda e: dict(reversed(e.items())))),
        "integers": json.dumps(entries(lambda e: {k: int(v) if type(v) is float and v.is_integer() else v
                                                  for k, v in e.items()})),
        "null-prop": json.dumps({**doc, "connections": [{"prop_ps": None, **e} for e in doc["connections"]]}),
        "connections-first": json.dumps({"connections": doc["connections"], **doc}),
        "repeated-key": json.dumps(head)[:-1] + ', "gates": [' + ", ".join(gates) + '], "connections": ['
                        + ", ".join(connections) + "]}",
        "repeated-list": '{"gates": ' + json.dumps(doc["gates"][:2]) + ", " + json.dumps(doc)[1:],
        "object-then-id": json.dumps(doc).replace(json.dumps(doc["gates"][0]), object_id, 1),
    }


def test_respelled_circuits_give_the_same_report(workdir):
    # A generated circuit in which every third connection has no extracted
    # delay (its length gives the delay) and the first row's clock offsets
    # are 0, so that integers and null delays can spell some of its values.
    tmp_path, lib_path = workdir
    doc = json.loads(circuit_text(generate_circuit(rows=12, width=4, seed=17, skip_prob=0.3)))
    for conn in doc["connections"][::3]:
        conn["length_um"] = float(math.floor(conn.pop("prop_ps")))  # the reference library's 1 ps/um
    for gate in doc["gates"]:
        gate["clock_offset_ps"] = 0.0 if gate["row"] == 0 else gate["clock_offset_ps"]
    texts = {"writer": circuit_text(parse_circuit(json.dumps(doc)))}
    texts.update(respellings(texts["writer"]))
    reports = {}
    for name, text in texts.items():
        circ, report_path = tmp_path / f"{name}.qc.json", tmp_path / f"{name}.report.json"
        circ.write_text(text)
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path), "--out", str(report_path)]) == 0
        report = report_path.read_text()
        reports[name] = report[:report.index(', "manifest": ')]
        # perfbench/checker.py reads a present prop_ps as a number, so it gets
        # the writer's spelling, without the key, of the null-delay circuit.
        read = tmp_path / "writer.qc.json" if name == "null-prop" else circ
        assert checker_failures(read, lib_path, report_path, remove_buffers=False) == [], name
    assert len(set(texts.values())) == len(texts)
    assert all(report == reports["writer"] for report in reports.values())


CHECKED_RUNS = {
    "default": ("ref_lib", {}, [], {"mode": "lexicographic", "remove_buffers": False}),
    "remove-buffers": ("ref_lib", {"chain_prob": 0.8}, ["--remove-buffers"],
                       {"mode": "lexicographic", "remove_buffers": True}),
    "weighted-3seg": ("three_segment_library", {"skip_prob": 0.3}, ["--tau", "1"],
                      {"mode": "weighted", "remove_buffers": False, "tau": 1.0, "sigma": 1e-8, "lam": 1e-4}),
}


@pytest.mark.parametrize("run", sorted(CHECKED_RUNS))
def test_streamed_report_passes_the_checker(request, tmp_path, run):
    # Wide enough that the writer streams the connections in two batches.
    lib_fixture, gen_kw, flags, spec = CHECKED_RUNS[run]
    lib = request.getfixturevalue(lib_fixture)
    files = {name: tmp_path / f"c.{name}.json" for name in ("circuit", "lib", "report")}
    files["circuit"].write_text(circuit_text(generate_circuit(rows=20, width=220, seed=7, lib=lib, **gen_kw)))
    files["lib"].write_text(serialize_library(lib))
    assert main(["optimize", "--circuit", str(files["circuit"]), "--lib", str(files["lib"]), *flags,
                 "--out", str(files["report"])]) == 0
    text = {name: path.read_text() for name, path in files.items()}
    report = json.loads(text["report"])
    assert len(report["connections"]) > REPORT_BATCH
    assert report["buffers_removed"] > 0 or not spec["remove_buffers"]
    spec = dict(spec, s_min=0.0, s_max=50.0, max_skip=2)
    fails, _ = perfbench_checker().check_report(text["circuit"], text["lib"], text["report"], spec)
    assert fails == []
