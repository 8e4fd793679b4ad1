import json

import pytest

from aqfpopt.cli import main
from aqfpopt.ingest import parse_circuit, parse_report, serialize_circuit, serialize_library
from aqfpopt.model import validate_circuit


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

    def test_library_warnings_logged_once(self, tmp_path, fixture_library, two_row_circuit, caplog):
        lib_path = tmp_path / "fixture.qlib.json"
        lib_path.write_text(serialize_library(fixture_library))
        circ_path = tmp_path / "c.qc.json"
        circ_path.write_text(serialize_circuit(two_row_circuit))
        with caplog.at_level("WARNING", logger="aqfpopt"):
            assert main(["optimize", "--circuit", str(circ_path), "--lib", str(lib_path)]) == 0
        jumps = [r.getMessage() for r in caplog.records if "PWL_DISCONTINUITY" in r.getMessage()]
        assert sorted(jumps) == sorted(set(jumps))
        assert {m.split(":")[0] for m in jumps} == {
            "[PWL_DISCONTINUITY] buffer.rd",
            "[PWL_DISCONTINUITY] majority3.rd",
        }

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

    def test_missing_subcommand_args(self):
        assert main(["optimize"]) == 1

    def test_log_env_accepted(self, workdir, monkeypatch):
        tmp_path, lib_path = workdir
        monkeypatch.setenv("QPRO_LOG", "debug")
        circ = gen(tmp_path, lib_path, "c.qc.json")
        assert main(["optimize", "--circuit", str(circ), "--lib", str(lib_path)]) == 0
