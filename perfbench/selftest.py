#!/usr/bin/env python3
"""Self-test of the independent checker: corrupted reports must be rejected.

Usage (from the repository root): python3 perfbench/selftest.py

Optimizes two small circuits with the real CLI, one with buffer removal
(lexicographic) and one in weighted mode on the three-segment library. The
clean reports must pass ``checker.check_report``; each corrupted copy must
fail with the named code:

- a row delta shifted by 100 ps, so that setup or hold fails (SLACK);
- the period raised by 1 ps, so that it is no longer minimal
  (PERIOD_NOT_MINIMAL; OBJECTIVE_NOT_OPTIMAL in weighted mode);
- one removed buffer put back, so that removal is no longer optimal
  (REMOVAL_NOT_OPTIMAL);
- a NaN token in place of a number (NONFINITE).

Exits 0 when every case behaves as expected.
"""

import json
import os
import re
import shutil
import sys

from run import WORK, WORKLOADS, Launcher, cli
from checker import check_report

CASES = (
    ("buffered-200x5", ("--rows", "40", "--width", "4", "--chain-prob", "0.8", "--seed", "7")),
    ("weighted-3seg-200x5", ("--rows", "40", "--width", "4", "--skip-prob", "0.3", "--seed", "7")),
)


def shift_row_delta(report: dict) -> dict:
    deltas = report["row_deltas_ps"]
    deltas[len(deltas) // 2] += 100.0
    return report


def raise_period(report: dict) -> dict:
    report["period_ps"] += 1.0
    report["frequency_ghz"] = 1000.0 / report["period_ps"]
    return report


def keep_one_buffer(report: dict, circuit: dict) -> dict:
    """Put back the first buffer of the first merged connection."""
    original = {(k["src"], k["dst"]) for k in circuit["connections"]}
    fanout = {}
    for k in circuit["connections"]:
        fanout.setdefault(k["src"], []).append(k["dst"])
    cells = {g["id"]: g["cell"] for g in circuit["gates"]}
    for pos, entry in enumerate(report["connections"]):
        a, b = entry["src"], entry["dst"]
        if (a, b) in original:
            continue
        for first in fanout[a]:
            node = first
            while cells[node] == "buffer" and node != b:
                node = fanout[node][0]
            if node == b and cells[first] == "buffer":
                report["connections"][pos:pos + 1] = [dict(entry, dst=first), dict(entry, src=first)]
                report["buffers_removed"] -= 1
                return report
    raise AssertionError("no merged connection found to undo")


def nan_token(text: str) -> str:
    out, n = re.subn(r'"slack_ps": [^,\n]+', '"slack_ps": NaN', text, count=1)
    assert n == 1
    return out


def main() -> int:
    workdir = WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    ok = True
    launcher = Launcher()
    try:
        libs = launcher.run([sys.executable, os.path.join(os.path.dirname(__file__), "make_libraries.py"),
                             str(workdir)], workdir / "libs")
        assert libs.rc == 0, "library export failed"
        for name, gen_args in CASES:
            w = WORKLOADS[name]
            lib = workdir / w.library
            circuit, report = workdir / f"{name}.qc.json", workdir / f"{name}.report.json"
            for argv in (cli("gen", *gen_args, "--lib", str(lib), "--out", str(circuit)),
                         cli("optimize", "--circuit", str(circuit), "--lib", str(lib), *w.optimize_args,
                             "--out", str(report))):
                child = launcher.run(argv, workdir / argv[3])
                assert child.rc == 0, f"{' '.join(argv[3:5])} failed"
            circuit_text, lib_text, text = circuit.read_text(), lib.read_text(), report.read_text()
            circuit_doc = json.loads(circuit_text)

            def edited(fn):
                return json.dumps(fn(json.loads(text)))

            cases = [("clean report", text, None),
                     ("row delta shifted", edited(shift_row_delta), "SLACK"),
                     ("period raised by 1 ps", edited(raise_period),
                      "PERIOD_NOT_MINIMAL" if w.spec["mode"] == "lexicographic" else "OBJECTIVE_NOT_OPTIMAL"),
                     ("NaN token", nan_token(text), "NONFINITE")]
            if w.spec["remove_buffers"]:
                cases.append(("removable buffer kept",
                              edited(lambda r: keep_one_buffer(r, circuit_doc)), "REMOVAL_NOT_OPTIMAL"))
            for label, report_text, code in cases:
                fails, _ = check_report(circuit_text, lib_text, report_text, w.spec)
                codes = sorted({f.split(":")[0] for f in fails})
                good = not fails if code is None else code in codes
                ok &= good
                print(f"{'ok' if good else 'WRONG'}: {name}, {label}: "
                      f"{'accepted' if not fails else 'rejected ' + ', '.join(codes)}")
    finally:
        launcher.close()
        shutil.rmtree(workdir)
    print("checker self-test passed" if ok else "checker self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
