"""The names the benchmark harness reaches into must exist.

``perfbench/traced_cli.py`` wraps the functions in its ``TRACED`` table and
``perfbench/make_libraries.py`` imports from ``aqfpopt``. Both are read as
source here, never run, so a rename in the package fails this test rather
than a traced benchmark run.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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
    # importing aqfpopt.cli, so the CLI must import them at load.
    modules = [f"aqfpopt.{m}" for m in traced_table()]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    code = f"import aqfpopt.cli, sys; missing = [m for m in {modules!r} if m not in sys.modules]; assert not missing, missing"
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
