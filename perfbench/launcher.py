#!/usr/bin/env python3
"""Starts the benchmark's child processes from a small process of its own.

Linux carries the high-water RSS of the process that spawns a child through
fork and exec, so a child's ``ru_maxrss`` is at least its spawner's. The
benchmark's own process holds numpy and the checker's data (over 80 MB after
it checks a 1000x20 report), so it starts every child through this process,
which imports nothing heavy. ``run.Launcher`` drives it.

Reads one JSON request per line on standard input:
``{"argv": [...], "env": {...}, "cwd": ..., "out": path, "err": path, "timeout_s": ...}``.
Writes one JSON reply per line on standard output:
``{"rc": exit code, "wall_s": seconds, "rss_mb": peak RSS in MiB}``.
A child still running after ``timeout_s`` is killed. Exits at the end of
its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    """Run one child to completion; wall clock and peak RSS are its own.

    ``os.wait4`` returns the rusage of exactly this child, unlike the
    cumulative maximum of RUSAGE_CHILDREN.
    """
    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, env=request["env"], cwd=request["cwd"])
        timer = threading.Timer(request["timeout_s"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    return {"rc": os.waitstatus_to_exitcode(status), "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
