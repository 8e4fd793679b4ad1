"""The ``sweep`` subcommand: compare the built-in presets on one circuit.

``main`` imports this module only for ``sweep``, so the other commands never
compile it.
"""

from __future__ import annotations

import json
import sys

from aqfpopt.cli import (
    EXIT_INPUT,
    EXIT_OK,
    PRESETS,
    _config_from_args,
    _load_inputs,
    _load_now,
    _schedule,
    _write_output,
    bufferopt,
    solver,
)
from aqfpopt.model import InfeasibleScheduleError, log


def _figures(sched, slacks) -> dict:
    """One run's row of ``sweep``, as printed and as written to ``--out``."""
    return {"frequency_ghz": 1000.0 / sched.period, "latency_ps": sched.latency, "min_slack_ps": slacks.min_slack}


def _sweep_line(tag: str, figures: dict, saved: str) -> str:
    ms = "n/a" if figures["min_slack_ps"] is None else f"{figures['min_slack_ps']:.2f}"
    return f"{tag:<14} {figures['frequency_ghz']:>11.3f} {figures['latency_ps']:>13.2f} {ms:>15} {saved:>14}"


def cmd_sweep(args) -> int:
    names = [p.strip() for p in (args.configs or "").split(",") if p.strip()]
    if not names:
        print("sweep requires --configs with at least one preset", file=sys.stderr)
        return EXIT_INPUT
    unknown = [p for p in names if p not in PRESETS]
    if unknown:
        print(f"unknown presets: {', '.join(unknown)} (choose from {', '.join(PRESETS)})", file=sys.stderr)
        return EXIT_INPUT
    configs = {name: _config_from_args(args, **PRESETS[name]) for name in names}
    _load_now(solver, bufferopt if "table3" in names else None)
    circuit, lib = _load_inputs(args)
    # Each distinct config is solved once on the parsed circuit; table3's
    # baseline is table1a's run, paired with one run after buffer removal.
    distinct = list(dict.fromkeys(configs.values()))
    _, outcomes = _schedule([circuit], lib, distinct, False, {})
    solved = dict(zip(distinct, outcomes))

    header = f"{'config':<14} {'freq (GHz)':>11} {'latency (ps)':>13} {'min slack (ps)':>15} {'buffers saved':>14}"
    lines = [header, "-" * len(header)]
    results = []
    removal = None
    for name in names:
        runs = [solved[configs[name]]]
        if name == "table3" and not isinstance(runs[0], InfeasibleScheduleError):
            if removal is None:  # made when the first table3 row is reached
                removal = _schedule([circuit], lib, [configs[name]], True, {})
            plan, [skip_run] = removal
            runs.append(skip_run)
        err = next((r for r in runs if isinstance(r, InfeasibleScheduleError)), None)
        if err is not None:
            log.warning("preset %s failed: %s", name, err)
            lines.append(f"{name:<14} {'infeasible':>11} {'-':>13} {'-':>15} {'-':>14}")
            results.append({"config": name, "error": [str(d) for d in err.diagnostics]})
            continue
        figures = [_figures(*run) for run in runs]
        if name != "table3":
            lines.append(_sweep_line(name, figures[0], "-"))
            results.append({"config": name, **figures[0]})
            continue
        base, skip = figures
        saved_pct = 100.0 * plan.buffers_removed / plan.buffers_total if plan.buffers_total else 0.0
        freq0, lat0 = base["frequency_ghz"], base["latency_ps"]
        dfreq = 100.0 * (skip["frequency_ghz"] - freq0) / freq0
        dlat = 100.0 * (skip["latency_ps"] - lat0) / lat0 if lat0 else 0.0
        lines.append(_sweep_line("baseline", base, "-"))
        lines.append(_sweep_line("phase-skip", skip, f"{saved_pct:.1f}%"))
        lines.append(f"{'change':<14} {dfreq:>10.1f}% {dlat:>12.1f}% {'':>15} {saved_pct:>13.1f}%")
        results.append({"config": name, "baseline": base, "phase_skipping": skip, "frequency_change_pct": dfreq,
                        "latency_change_pct": dlat, "buffers_saved_pct": saved_pct})

    print("\n".join(lines))
    if args.out:
        doc = {"circuit": circuit.name, "results": results}
        _write_output(args.out, lambda fh: fh.write(json.dumps(doc, indent=2) + "\n"))
    return EXIT_OK
