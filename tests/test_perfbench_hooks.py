"""The names and shapes the benchmark harness reaches into must exist.

``perfbench/traced_cli.py`` wraps the functions in its ``TRACED`` table and
``perfbench/make_libraries.py`` imports from ``aqfpopt``. Both are read as
source here, and ``traced_cli.py`` also runs one small ``optimize``, so a
rename in the package or a change to what the spans record fails these
tests rather than a traced benchmark run.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from aqfpopt.cli import generate_circuit
from aqfpopt.ingest import serialize_circuit, serialize_library

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
    circuit_path.write_text(serialize_circuit(circuit))
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
