"""The ``verify`` subcommand: re-check a stored report against the raw timing rules.

``main`` imports this module only for ``verify``, so the other commands never
compile its checks.
"""

from __future__ import annotations

from typing import Optional

# Under ``main``, bufferopt is a lazy module, whose code runs only for a
# report made with removal.
from aqfpopt import bufferopt, timing
from aqfpopt.ingest import load_inputs, parse_report, read_input, schedule_from_report
from aqfpopt.model import (
    FIX_TOL,
    CellLibrary,
    Diagnostic,
    OptimizationConfig,
    PwlDomainError,
    Schedule,
    ValidationError,
    VerificationError,
    left_sum,
    log,
    segment_owning,
)

_CLAIMS = ("frequency_ghz", "min_slack_ps", "buffers_total", "buffers_removed")


def _decode_report(path, names) -> dict:
    """The parts of the report file at ``path`` that ``verify`` reads: the manifest
    config, the schedule, the ``_CLAIMS`` figures and the connections, as the
    four columns ``parse_report`` streams them into, each endpoint the string
    of ``names``, the circuit's gate ids, that it equals."""
    report = read_input(path, lambda fh: parse_report(fh, names))
    return {"config": (report.get("manifest") or {}).get("config", {}), "schedule": schedule_from_report(report),
            "connections": report["connections"], **{key: report[key] for key in _CLAIMS}}


def _manifest_config(recorded: dict) -> OptimizationConfig:
    """The config of every setting a report's manifest records; one it leaves out takes its field default."""
    given = {key: value for key, value in recorded.items() if key in OptimizationConfig._fields}
    if isinstance(given.get("priority"), list):
        given["priority"] = tuple(given["priority"])
    return OptimizationConfig(**given)


def _out_of_bounds(sched: Schedule, cfg: OptimizationConfig, lib: CellLibrary) -> list[Diagnostic]:
    """One diagnostic per bound of ``cfg`` that the schedule's period or slack passes by more than FIX_TOL."""
    lo, hi = cfg.period_bounds(lib)
    bounds = (("PERIOD_OUT_OF_RANGE", "period", sched.period, lo, -1, "below the lower period bound"),
              ("PERIOD_OUT_OF_RANGE", "period", sched.period, hi, 1, "above the upper period bound"),
              ("SLACK_OUT_OF_RANGE", "slack", sched.slack, cfg.s_min, -1, "below s_min"),
              ("SLACK_OUT_OF_RANGE", "slack", sched.slack, cfg.s_max, 1, "above s_max"))
    return [Diagnostic(code, "schedule", f"{name} {value:.6g} ps {side} {bound:.6g} ps")
            for code, name, value, bound, sign, side in bounds if sign * (value - bound) > FIX_TOL]


def _connection_mismatch(claimed: list, found) -> list[Diagnostic]:
    """A REPORT_MISMATCH unless the report's connections, as ``parse_report``'s columns,
    are the STA's ``found`` in order, each slack within ``FIX_TOL``."""
    src, dst, setup, hold = claimed
    # A NaN is within FIX_TOL of nothing, so a NaN slack differs.
    differ = [i for i, (a, b, s, h, found_a, found_b, found_s, found_h)
              in enumerate(zip(src, dst, setup, hold, found.src, found.dst, found.setup_slack, found.hold_slack))
              if a != found_a or b != found_b or not (abs(s - found_s) <= FIX_TOL and abs(h - found_h) <= FIX_TOL)]
    count = len(differ) + abs(len(src) - len(found))
    if not count:
        return []
    i = differ[0] if differ else min(len(src), len(found))

    def entry(columns):
        a, b, s, h = columns
        return f"{a[i]}->{b[i]}, setup {s[i]!r} ps, hold {h[i]!r} ps" if i < len(a) else "no connection"

    return [Diagnostic("REPORT_MISMATCH", "connections", f"report says {count} of {len(src)} connections differ, "
                       f"first connections[{i}]: {entry(claimed)}, the STA finds {entry(found.columns())}")]


def _report_mismatches(claims: dict, sched: Schedule, sta_min: Optional[float], lib: CellLibrary,
                       plan) -> list[Diagnostic]:
    """The report's figures that disagree with its schedule, with ``sta_min``,
    the STA's minimum, or with ``plan``, the re-applied removal (None without removal)."""
    latency, frequency, claimed = left_sum(sched.row_deltas), 1000.0 / sched.period, claims["min_slack_ps"]
    sta = "none, the circuit has no connections" if sta_min is None else f"{sta_min:.6g} ps"
    owner = segment_owning(lib.breakpoints, sched.period)
    counts = (plan.buffers_total, plan.buffers_removed) if plan else (0, 0)
    removal = "the re-applied removal gives" if plan else "without removal it is"
    rules = (  # field, whether it agrees, what the report says against what is found
        ("latency_ps", abs(sched.latency - latency) <= FIX_TOL,
         f"{sched.latency:.6g} ps, the row deltas sum to {latency:.6g} ps"),
        ("frequency_ghz", abs(claims["frequency_ghz"] - frequency) <= 1e-9 * frequency,
         f"{claims['frequency_ghz']:.6g} GHz, the period gives {frequency:.6g} GHz"),
        ("min_slack_ps", claimed == sta_min if None in (claimed, sta_min) else abs(claimed - sta_min) <= FIX_TOL,
         f"{'null' if claimed is None else f'{claimed:.6g} ps'}, the STA finds {sta}"),
        ("slack_ps", sta_min is None or sched.slack <= sta_min + FIX_TOL,
         f"{sched.slack:.6g} ps, above the STA minimum of {sta}"),
        ("segment_index", sched.segment_index == owner, f"{sched.segment_index}, the period lies in segment {owner}"),
        *((field, claims[field] == n, f"{claims[field]}, {removal} {n}") for field, n in zip(_CLAIMS[2:], counts)),
    )
    return [Diagnostic("REPORT_MISMATCH", field, f"report says {said}") for field, agrees, said in rules if not agrees]


def cmd_verify(args) -> None:
    # Circuit and library errors are reported before report errors.
    circuit, lib = load_inputs(args.circuit, args.lib)
    decoded = _decode_report(args.schedule, circuit.gates.id)
    manifest_cfg, sched = decoded["config"], decoded["schedule"]
    cfg = _manifest_config(manifest_cfg)

    plan = None
    if manifest_cfg.get("remove_buffers"):
        circuit, plan = bufferopt.remove_buffers(circuit, lib, max_skip=cfg.max_skip)
        log.info("re-applied buffer removal recorded in the report manifest")
    if len(sched.row_deltas) != circuit.num_rows - 1:
        message = f"report has {len(sched.row_deltas)} row deltas, circuit needs {circuit.num_rows - 1}"
        raise ValidationError([Diagnostic("SCHEMA_MISMATCH", "schedule", message)])
    outside = _out_of_bounds(sched, cfg, lib)
    if outside:
        raise VerificationError(outside)
    try:
        slacks = timing.sta_check(circuit, lib, sched, cfg.hold_mode)
    except PwlDomainError as e:
        raise VerificationError([Diagnostic("PERIOD_OUT_OF_RANGE", "schedule", str(e))]) from e
    t = slacks.entries
    failing = [
        Diagnostic("STA_VIOLATION", f"{t.src[i]}->{t.dst[i]}",
                   f"timing violation: setup {t.setup_slack[i]:.6g} ps, hold {t.hold_slack[i]:.6g} ps")
        for i in slacks.failing()
    ]
    if failing:
        raise VerificationError(failing)
    mismatches = _report_mismatches(decoded, sched, slacks.min_slack, lib, plan)
    mismatches += _connection_mismatch(decoded["connections"], t)
    if mismatches:
        raise VerificationError(mismatches)
    ms = "n/a" if slacks.min_slack is None else f"{slacks.min_slack:.6g} ps"
    print(f"schedule verifies: min slack {ms}")
