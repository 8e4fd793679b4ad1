#!/usr/bin/env python3
"""aqfpopt benchmark: times the real CLI end to end and checks every output.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run generates the workload's inputs from the seed, then repeats whole
rounds until S seconds have passed. A round runs ``aqfpopt optimize`` and
then ``aqfpopt verify`` on each of the workload's circuits, one child
process at a time, and checks each report with ``checker.py``, which shares
no code with the program.

With ``--trace 0`` the run reports the end-to-end metrics (means over the
run's samples). With ``--trace 1`` it runs the commands through ``traced_cli.py``
instead and reports the per-layer metrics taken from the spans. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full results are also written
to ``.perfbench/results/``. See README.md for the workloads and metrics.
"""

import os

# Cap numpy/BLAS threads before numpy loads here or in any child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

from checker import check_report  # noqa: E402

#: A child still running after this many seconds is killed and counted failed.
CHILD_TIMEOUT_S = 120.0
#: No round starts if the previous one suggests it would end after this.
RUN_CAP_S = 140.0
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3

#: What the checker expects of every report: the CLI's default slack range and
#: row-span limit, plus each workload's objective and removal flag.
CLI_DEFAULTS = {"s_min": 0.0, "s_max": 50.0, "max_skip": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    circuits: int  # circuits per run, generated from seeds derived from --seed
    gen_args: tuple
    library: str
    optimize_args: tuple
    spec: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-1000x20",
            circuits=1,
            gen_args=("--rows", "1000", "--width", "20"),
            library="reference.qlib.json",
            optimize_args=(),
            spec=dict(CLI_DEFAULTS, mode="lexicographic", remove_buffers=False),
        ),
        Workload(
            name="buffered-200x5",
            circuits=4,
            gen_args=("--rows", "200", "--width", "5", "--chain-prob", "0.8"),
            library="reference.qlib.json",
            optimize_args=("--remove-buffers",),
            spec=dict(CLI_DEFAULTS, mode="lexicographic", remove_buffers=True),
        ),
        Workload(
            name="weighted-3seg-200x5",
            circuits=5,
            gen_args=("--rows", "200", "--width", "5", "--skip-prob", "0.3"),
            library="three-segment.qlib.json",
            optimize_args=("--tau", "1"),
            spec=dict(CLI_DEFAULTS, mode="weighted", remove_buffers=False, tau=1.0, sigma=1e-8, lam=1e-4),
        ),
    )
}

TRACED_FUNCTIONS = (
    "ingest.parse_circuit", "ingest.parse_library", "ingest.parse_report", "ingest.emit_report",
    "ingest.serialize_report", "model.validate_circuit", "model.validate_library",
    "bufferopt.remove_buffers", "timing.build_constraints", "timing.sta_check",
    "solver.optimize_schedule", "solver.lp_solve", "cli.import",
)


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchmarkError(Exception):
    pass


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("QPRO_LOG", None)
    return env


class Launcher:
    """Starts every child through launcher.py, so that its peak RSS is its own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, start_new_session=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def run(self, argv, log_stem: Path) -> Child:
        """Run one child to completion and return its wall clock, peak RSS and output."""
        request = {"argv": list(argv), "env": child_env(), "cwd": str(ROOT),
                   "out": f"{log_stem}.out", "err": f"{log_stem}.err", "timeout_s": CHILD_TIMEOUT_S}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise BenchmarkError("the launcher process has ended") from None
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError("the launcher process ended without a reply")
        reply = json.loads(line)
        text = Path(f"{log_stem}.out").read_text(encoding="utf-8", errors="replace")
        return Child(rc=reply["rc"], wall_s=reply["wall_s"], rss_mb=reply["rss_mb"], stdout=text)

    def close(self) -> None:
        """End the launcher, and any child it still runs, and wait for them."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        self.proc.stdout.close()


def cli(*args) -> list:
    return [sys.executable, "-m", "aqfpopt.cli", *args]


def traced_cli(spans: Path, *args) -> list:
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans), *args]


def report_digest(text: str) -> str:
    """Hash of a report without its manifest, which holds run timings."""
    doc = json.loads(text)
    doc.pop("manifest", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class Run:
    def __init__(self, workload: Workload, seed: int, workdir: Path, launcher: Launcher):
        self.w = workload
        self.launcher = launcher
        self.seed = seed
        self.dir = workdir
        self.lib = workdir / workload.library
        self.circuits = [workdir / f"circuit{i}.qc.json" for i in range(workload.circuits)]
        self.gen_seeds = [seed * 1000 + i for i in range(workload.circuits)]
        self.attempted = 0
        self.failed = 0
        self.problems = []  # faults that make the run incorrect
        self.failures = []  # messages of failed operations
        self.verdicts = {}  # (circuit index, report digest) -> checker failures
        self.digests = {}  # circuit index -> report digest of the first round
        self.facts = {}  # circuit index -> facts of its accepted report
        self.log_count = 0

    def log_stem(self, tag: str) -> Path:
        self.log_count += 1
        return self.dir / f"{self.log_count:04d}-{tag}"

    def setup(self) -> float:
        """Export the libraries and generate the circuits; returns wall seconds."""
        t0 = time.perf_counter()
        steps = [[sys.executable, str(HERE / "make_libraries.py"), str(self.dir)]]
        for path, gen_seed in zip(self.circuits, self.gen_seeds):
            steps.append(cli("gen", *self.w.gen_args, "--seed", str(gen_seed),
                             "--lib", str(self.lib), "--out", str(path)))
        for argv in steps:
            child = self.launcher.run(argv, self.log_stem("setup"))
            if child.rc != 0:
                raise BenchmarkError(f"set-up step failed with exit code {child.rc}: {' '.join(argv[1:4])}")
        return time.perf_counter() - t0

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for path in [self.lib, *self.circuits]:
            h.update(path.read_bytes())
        return h.hexdigest()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, i: int, report: Path) -> bool:
        """Run the independent checker; a report seen before reuses its verdict."""
        try:
            text = report.read_text(encoding="utf-8")
            digest = report_digest(text)
        except (OSError, ValueError) as e:
            self.fail(f"circuit {i}: unreadable report ({e})")
            return False
        if self.digests.setdefault(i, digest) != digest:
            self.problems.append(f"circuit {i}: optimize wrote a different report than in the first round")
        key = (i, digest)
        if key not in self.verdicts:
            fails, facts = check_report(self.circuits[i].read_text(encoding="utf-8"),
                                        self.lib.read_text(encoding="utf-8"), text, self.w.spec)
            self.verdicts[key] = fails
            if not fails:
                self.facts[i] = facts
        if self.verdicts[key]:
            self.fail(f"circuit {i}: checker rejected the report: {self.verdicts[key][:3]}")
            return False
        return True

    def optimize_argv(self, i: int, report: Path, spans=None) -> list:
        args = ("optimize", "--circuit", str(self.circuits[i]), "--lib", str(self.lib),
                *self.w.optimize_args, "--out", str(report))
        return traced_cli(spans, *args) if spans else cli(*args)

    def verify_argv(self, i: int, report: Path, spans=None) -> list:
        args = ("verify", "--circuit", str(self.circuits[i]), "--lib", str(self.lib), "--schedule", str(report))
        return traced_cli(spans, *args) if spans else cli(*args)

    def optimize(self, i: int, report: Path, spans=None) -> Child:
        report.unlink(missing_ok=True)
        self.attempted += 1
        child = self.launcher.run(self.optimize_argv(i, report, spans), self.log_stem(f"optimize{i}"))
        if child.rc != 0:
            self.fail(f"circuit {i}: optimize exited with {child.rc}")
        else:
            self.check(i, report)
        return child

    def verify(self, i: int, report: Path, spans=None) -> Child:
        self.attempted += 1
        child = self.launcher.run(self.verify_argv(i, report, spans), self.log_stem(f"verify{i}"))
        if child.rc != 0 or "schedule verifies" not in child.stdout:
            self.fail(f"circuit {i}: verify exited with {child.rc}")
        return child

    def plain_round(self) -> list:
        ops = []
        for i in range(self.w.circuits):
            report = self.dir / f"report{i}.json"
            opt = self.optimize(i, report)
            ver = self.verify(i, report)
            ops.append({"optimize_s": opt.wall_s, "verify_s": ver.wall_s, "optimize_peak_rss_mb": opt.rss_mb})
        return ops

    def traced_round(self) -> list:
        per_circuit = []
        for i in range(self.w.circuits):
            report = self.dir / f"report{i}.json"
            opt_spans, ver_spans = self.dir / f"spans-optimize{i}.json", self.dir / f"spans-verify{i}.json"
            opt = self.optimize(i, report, opt_spans)
            if i == 0:  # tracing overhead, against an untraced optimize right after
                plain = self.optimize(i, self.dir / "report-untraced.json")
            report_bytes = report.stat().st_size if report.exists() else 0
            self.verify(i, report, ver_spans)
            per_circuit.append(self.layer_metrics(i, opt, opt_spans, ver_spans, report_bytes))
        per_circuit[0]["cli.trace_overhead_s"] = per_circuit[0]["cli.traced_optimize_s"] - plain.wall_s
        return per_circuit

    def layer_metrics(self, i: int, opt: Child, opt_spans: Path, ver_spans: Path, report_bytes: int) -> dict:
        try:
            opt_doc = json.loads(opt_spans.read_text(encoding="utf-8"))
            ver_doc = json.loads(ver_spans.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise BenchmarkError(f"circuit {i}: traced run left no spans ({e})") from None
        spans = opt_doc["spans"] + ver_doc["spans"]
        m = {f"{name}_s": 0.0 for name in TRACED_FUNCTIONS}
        for s in spans:
            key = f"{s['name']}_s"
            m[key] = m.get(key, 0.0) + (s["end"] - s["start"])
        attrs = {}
        for s in opt_doc["spans"]:
            attrs.setdefault(s["name"], []).append(s["attrs"])
        removal = (attrs.get("bufferopt.remove_buffers") or [{}])[0]
        schedule = (attrs.get("solver.optimize_schedule") or [{}])[0]
        lp_rows = [a["rows"] for a in attrs.get("solver.lp_solve", [])]
        top = sum(s["end"] - s["start"] for s in opt_doc["spans"] if s["parent"] == -1)
        if top > opt.wall_s:
            self.problems.append(f"circuit {i}: traced spans ({top:.6f} s) exceed the process wall clock")
        m.update({
            "ingest.circuit_bytes": self.circuits[i].stat().st_size,
            "ingest.report_bytes": report_bytes,
            "bufferopt.chains": removal.get("chains", 0),
            "bufferopt.buffers_total": removal.get("buffers_total", 0),
            "bufferopt.buffers_removed": removal.get("buffers_removed", 0),
            "timing.constraints": sum(a["constraints"] for a in attrs.get("timing.build_constraints", [])),
            "solver.lp_solve_calls": len(lp_rows),
            "solver.lp_rows_max": max(lp_rows, default=0),
            "solver.segments_solved": schedule.get("segments_solved", 0),
            "solver.fast_path_segments": schedule.get("fast_path_segments", 0),
            "solver.other_s": m["solver.optimize_schedule_s"] - m["solver.lp_solve_s"],
            "cli.traced_optimize_s": opt.wall_s,
            "cli.optimize_spans_s": top,
            "cli.unaccounted_s": opt.wall_s - top,
        })
        return m


def measure(run: Run, seconds: float, trace: bool) -> list:
    """Repeat whole rounds for about ``seconds``; a round holds one sample dict per circuit.

    The run stops at the round boundary nearest to ``seconds``, judged by the
    length of the last round. A round much longer than ``seconds`` runs once,
    so the run's length does not jump by a whole round from run to run.
    """
    rounds = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds.append(run.traced_round() if trace else run.plain_round())
        elapsed = time.perf_counter() - t0
        last = elapsed - (r0 - t0)
        if elapsed + last / 2 >= seconds or elapsed + last > RUN_CAP_S:
            return rounds


def summarize(rounds: list) -> dict:
    """Per metric, the mean of all the run's samples.

    The machine's speed drifts in phases of seconds, so the samples of a run
    are bimodal; their median jumps between the modes, while their mean
    follows the share of time spent in each and varies less from run to run.
    """
    samples = {}
    for r in rounds:
        for sample in r:
            for key, value in sample.items():
                samples.setdefault(key, []).append(value)
    return {key: statistics.fmean(values) for key, values in samples.items()}


def fact_values(run: Run, key: str) -> list:
    """A checker fact of every circuit whose report was accepted."""
    values = [facts[key] for facts in run.facts.values()]
    if not values:
        raise BenchmarkError(f"no accepted report gives {key}")
    return values


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
              launcher: Launcher) -> dict:
    run = Run(workload, seed, workdir, launcher)
    setups, digests = [], set()
    for _ in range(1 if trace else SETUP_REPEATS):
        setups.append(run.setup())
        digests.add(run.input_digest())
    if len(digests) != 1:
        run.problems.append("set-up produced different inputs from the same seed")
    rounds = measure(run, seconds, trace)
    values = summarize(rounds)
    units = declared_units("per_layer" if trace else "end_to_end")
    if not trace:
        values["setup_s"] = statistics.median(setups)
        values["frequency_ghz"] = statistics.fmean(1000.0 / t for t in fact_values(run, "period_ps"))
        values["latency_ps"] = statistics.fmean(fact_values(run, "latency_ps"))
    if set(values) != set(units):
        raise BenchmarkError(f"measured metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {
        "workload": workload.name, "seed": seed, "trace": int(trace), "rounds": len(rounds),
        "gen_seeds": run.gen_seeds, "setup_s_samples": setups,
        "correct": not run.problems, "problems": run.problems,
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
        "checker_facts": run.facts, "metrics": metrics, "samples": rounds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A stopped run still ends its children (Launcher.close runs on the way out).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "aqfpopt" / "cli.py").is_file():
        print(f"error: the aqfpopt sources are missing ({SRC / 'aqfpopt'})", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        with Launcher() as launcher:
            result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir,
                               launcher)
    except BenchmarkError as e:
        print(f"error: {e} (logs kept in {workdir})", file=sys.stderr)
        return 1
    shutil.rmtree(workdir)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"workload {result['workload']}, seed {result['seed']}, {result['rounds']} rounds, "
          f"circuit seeds {result['gen_seeds']}")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"attempted: {result['attempted']}")
    print(f"failed: {result['failed']}")
    for message in result["problems"] + result["failures"]:
        print(f"note: {message}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
