"""The names and shapes the benchmark harness reaches into must exist.

``perfbench/traced_cli.py`` wraps the functions in its ``TRACED`` table and
``perfbench/make_libraries.py`` imports from ``aqfpopt``. Both are read as
source here, and ``traced_cli.py`` also runs one small ``optimize``, so a
rename in the package or a change to what the spans record fails these
tests rather than a traced benchmark run. ``tests/phase_memory.py``, which
pytest does not collect, runs each command it measures once as well.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import circuit_text
from aqfpopt.generator import generate_circuit
from aqfpopt.ingest import serialize_library

ROOT = Path(__file__).resolve().parents[1]


def perfbench_source(name):
    return ast.parse((ROOT / "perfbench" / name).read_text())


def traced_table():
    for node in perfbench_source("traced_cli.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("traced_cli.py defines no TRACED table")


def test_traced_names_are_callables():
    for mod_name, names in traced_table().items():
        module = importlib.import_module(f"aqfpopt.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"aqfpopt.{mod_name}.{name}"


def test_cli_import_loads_every_traced_module():
    # The traced run looks each module up in sys.modules right after
    # importing aqfpopt.cli, so the CLI must import them at load. It must
    # not load dataclasses or logging, which with what they import cost
    # each process ~20 ms of start-up.
    modules = [f"aqfpopt.{m}" for m in traced_table()]
    slow = ["dataclasses", "logging", "inspect"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    code = (f"import aqfpopt.cli, sys; missing = [m for m in {modules!r} if m not in sys.modules]; "
            f"loaded = [m for m in {slow!r} if m in sys.modules]; assert not missing and not loaded, (missing, loaded)")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_make_libraries_imports_resolve():
    found = 0
    for node in ast.walk(perfbench_source("make_libraries.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("aqfpopt"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                found += 1
    assert found


def test_traced_run_records_constraint_and_sta_spans(tmp_path, ref_lib):
    circuit = generate_circuit(rows=6, width=3, seed=5, skip_prob=0.3, lib=ref_lib)
    circuit_path, lib_path = tmp_path / "c.qc.json", tmp_path / "ref.qlib.json"
    circuit_path.write_text(circuit_text(circuit))
    lib_path.write_text(serialize_library(ref_lib))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    argv = ["optimize", "--circuit", str(circuit_path), "--lib", str(lib_path)]
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans_path), *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(spans_path.read_text())
    assert traced["exit_code"] == 0
    by_name = {}
    for span in traced["spans"]:
        by_name.setdefault(span["name"], []).append(span)
    (build,) = by_name["timing.build_constraints"]
    # One constraint record per connection.
    assert build["attrs"]["constraints"] == len(circuit.connections)
    assert len(by_name["timing.sta_check"]) == 1
    # perfbench's solver.lp_* metrics read the master's constraint count.
    assert by_name["solver.lp_solve"]
    for span in by_name["solver.lp_solve"]:
        rows = span["attrs"]["rows"]
        assert type(rows) is int and rows >= 0


#: Runs traced_cli.py (argv[2:]) as its own script, and appends the pid of
#: each process that writes a spans file to the log at argv[1].
COUNT_SPAN_WRITES = """
import json, os, runpy, sys
log_path, sys.argv = sys.argv[1], sys.argv[2:]
dump = json.dump

def logged_dump(*args, **kwargs):
    fd = os.open(log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    os.write(fd, f"{os.getpid()}\\n".encode())
    os.close(fd)
    return dump(*args, **kwargs)

json.dump = logged_dump
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_traced_verify_writes_its_spans_once(tmp_path, ref_lib):
    # The spans file is written once, by the one process, and the report's
    # decode is among its spans.
    circuit = generate_circuit(rows=6, width=3, seed=5, skip_prob=0.3, lib=ref_lib)
    names = ("c.qc.json", "ref.qlib.json", "c.report.json", "spans.json", "log")
    paths = {name: tmp_path / name for name in names}
    paths["c.qc.json"].write_text(circuit_text(circuit))
    paths["ref.qlib.json"].write_text(serialize_library(ref_lib))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    io = ["--circuit", str(paths["c.qc.json"]), "--lib", str(paths["ref.qlib.json"])]
    subprocess.run([sys.executable, "-m", "aqfpopt.cli", "optimize", *io, "--out", str(paths["c.report.json"])],
                   env=env, check=True, capture_output=True)
    proc = subprocess.run([sys.executable, "-c", COUNT_SPAN_WRITES, str(paths["log"]),
                           str(ROOT / "perfbench" / "traced_cli.py"), str(paths["spans.json"]),
                           "verify", *io, "--schedule", str(paths["c.report.json"])],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(paths["log"].read_text().split()) == 1
    traced = json.loads(paths["spans.json"].read_text())
    assert traced["exit_code"] == 0
    (decode,) = [span for span in traced["spans"] if span["name"] == "ingest.parse_report"]
    assert decode["end"] > decode["start"]


#: A line that ``tests/phase_memory.py`` prints after a phase: its name, then
#: the resident size and the peak so far.
PHASE_LINE = re.compile(r"(.{20}) rss +\d+\.\d\d MB   peak +\d+\.\d\d MB")


def test_phase_memory_marks_each_phase_of_each_command(tmp_path, ref_lib):
    # Every peak-memory figure quoted for a command comes from this script.
    paths = {name: tmp_path / name for name in ("c.qc.json", "ref.qlib.json", "c.report.json")}
    paths["ref.qlib.json"].write_text(serialize_library(ref_lib))
    inputs = ["--circuit", str(paths["c.qc.json"]), "--lib", str(paths["ref.qlib.json"])]
    loads = ["parse_circuit", "parse_library", "validate_circuit"]
    runs = {  # in the order they must run: gen writes the circuit, and optimize the report
        "gen": (["--rows", "6", "--width", "3", "--seed", "5", "--out", str(paths["c.qc.json"])],
                ["parse_library", "generate_circuit", "serialize_circuit"]),
        "optimize": ([*inputs, "--out", str(paths["c.report.json"])],
                     [*loads, "build_constraints", "optimize_schedule", "sta_check", "emit_report", "serialize_report"]),
        "verify": ([*inputs, "--schedule", str(paths["c.report.json"])], [*loads, "parse_report", "sta_check"]),
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    for command, (argv, phases) in runs.items():
        proc = subprocess.run([sys.executable, str(ROOT / "tests" / "phase_memory.py"), command, *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        marks = [m.group(1).strip() for m in map(PHASE_LINE.fullmatch, proc.stdout.splitlines()) if m]
        assert marks == ["interpreter", "import", "load modules", *phases], command
