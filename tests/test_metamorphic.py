"""Metamorphic checks: changes to a circuit that must leave its schedule alone.

Each case solves a generated circuit and a transformed copy of it in
process, with the parse and the CLI left out, over two libraries and five
solver settings.
"""

import random

import pytest

from conftest import records
from aqfpopt.bufferopt import remove_buffers
from aqfpopt.generator import generate_circuit
from aqfpopt.model import Circuit, OptimizationConfig
from aqfpopt.solver import FIX_TOL, optimize_schedule
from aqfpopt.timing import build_constraints

#: Generator settings: no skips, phase skips, and buffer chains.
CIRCUITS = [dict(rows=12, width=4, seed=seed, **kw)
            for seed in (1, 2, 3) for kw in ({}, {"skip_prob": 0.5}, {"chain_prob": 0.8})]
#: Solver settings, and whether buffer removal runs first.
CONFIGS = {
    "period-first": (OptimizationConfig(), False),
    "slack-first": (OptimizationConfig(priority=("slack", "period", "latency")), False),
    "weighted": (OptimizationConfig(priority_mode="weighted"), False),
    "dlplace": (OptimizationConfig(hold_mode="dlplace"), False),
    "remove-buffers": (OptimizationConfig(), True),
}
#: The reference library sits at its 200 ps floor on most of these circuits;
#: the three-segment one gives periods across its segments.
LIBRARIES = ["ref_lib", "three_segment_library"]


def solve(c, lib, config):
    cfg, remove = CONFIGS[config]
    if remove:
        c, _ = remove_buffers(c, lib, max_skip=cfg.max_skip)
    return optimize_schedule(build_constraints(c, lib, cfg), lib, cfg)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("library", LIBRARIES)
def test_shifting_every_clock_offset_leaves_period_latency_and_slack(request, library, config):
    # Only offset differences along connections enter the timing rules.
    lib = request.getfixturevalue(library)
    for kw in CIRCUITS:
        c = generate_circuit(lib=lib, **kw)
        base = solve(c, lib, config)
        for shift in (-40.0, 250.0):
            shifted = c._replace(gates=[g._replace(clock_offset=g.clock_offset + shift) for g in records(c.gates)])
            got = solve(shifted, lib, config)
            assert (got.period, got.latency, got.slack) == pytest.approx(
                (base.period, base.latency, base.slack), abs=FIX_TOL), (kw, shift)


def renamed(c: Circuit, seed: int) -> Circuit:
    """``c`` with every gate id replaced, in an order unrelated to the old ids'."""
    ids = list(c.gates.id)
    random.Random(seed).shuffle(ids)
    names = {gid: f"n{k}" for k, gid in enumerate(ids)}
    return Circuit(c.name, c.num_rows, [g._replace(id=names[g.id]) for g in records(c.gates)],
                   [x._replace(src=names[x.src], dst=names[x.dst]) for x in records(c.connections)])


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("library", LIBRARIES)
def test_renaming_every_gate_leaves_the_schedule(request, library, config):
    lib = request.getfixturevalue(library)
    for kw in CIRCUITS:
        c = generate_circuit(lib=lib, **kw)
        assert solve(renamed(c, kw["seed"]), lib, config) == solve(c, lib, config), kw
