import io
from array import array

import pytest

from aqfpopt.cli import reference_library
from aqfpopt.ingest import serialize_circuit
from aqfpopt.model import (
    CellLibrary,
    CellTiming,
    Circuit,
    Connection,
    Gate,
    PiecewiseLinear,
)
from aqfpopt.solver import SegmentRestriction

#: A row-span cap that no test circuit reaches, so the cap never binds.
NO_CAP = 10**6


def records(table) -> list:
    """The records of a column table, one per row, for tests that read it entry by entry."""
    return [table.at(i) for i in range(len(table))]


def circuit_columns(c: Circuit) -> tuple:
    """A circuit's name, row count and columns, to compare two circuits by
    value. A float column compares by its bytes, so the NaN that stands for
    a length-derived delay equals itself, where NaN != NaN as floats."""
    def value(column):
        return column.tobytes() if type(column) is array else column

    return c.name, c.num_rows, [*map(value, c.gates.columns())], [*map(value, c.connections.columns())]


def circuit_text(c: Circuit) -> str:
    """The circuit document as ``serialize_circuit`` writes it to a file."""
    out = io.StringIO()
    serialize_circuit(c, out)
    return out.getvalue()

BP2 = (0.0, 100.0, 300.0)
BP3 = (0.0, 100.0, 200.0, 300.0)


def const_fn(value, bps=BP2):
    return PiecewiseLinear(bps, tuple((0.0, value) for _ in range(len(bps) - 1)))


def make_library(cells, bps=BP2, t_min=100.0, t_max=300.0, max_frequency=10.0,
                 l_max_drive=120.0, l_buffer=10.0, prop_per_um=1.0):
    return CellLibrary(
        cells=cells,
        breakpoints=bps,
        l_max_drive=l_max_drive,
        l_buffer=l_buffer,
        prop_per_um=prop_per_um,
        t_min=t_min,
        t_max=t_max,
        max_frequency=max_frequency,
    )


def reformulated_residuals(tcs, lib, period, deltas, hold_mode):
    """Signed margin of every reformulated row at S = 0.

    Each record yields a setup and a hold row. The frequency-dependent terms
    come from the solver's affine forms (``fs_affine``/``fh_affine``) on the
    segment that owns ``period``. Setup rows give lhs - rhs and hold rows
    rhs - lhs, so each value lines up with the STA slack of its connection.
    """
    k = next(iter(lib.cells.values())).c2q.segment_of(period)
    seg = SegmentRestriction(index=k, t_lo=period, t_hi=period, lib=lib)
    out = {}
    for tc in records(tcs.constraints):
        dsum = sum(deltas[tc.first_row:tc.last_row])
        a, b = seg.fs_affine(tc.src_cell, tc.dst_cell)
        out[(tc.src, tc.dst, "setup")] = dsum - (a * period + b) - tc.rhs
        a, b = seg.fh_affine(tc.src_cell, tc.dst_cell, hold_mode)
        out[(tc.src, tc.dst, "hold")] = tc.rhs - (dsum - (a * period + b))
    return out


@pytest.fixture(scope="session")
def fixture_library():
    """Uniform two-segment library: c2q=10, setup=5, hold=5, rd=0.3T+10 / 0.36T."""
    timing = CellTiming(
        c2q=const_fn(10.0),
        setup=const_fn(5.0),
        hold=const_fn(5.0),
        rd=PiecewiseLinear(BP2, ((0.3, 10.0), (0.36, 0.0))),
    )
    return make_library({"buffer": timing, "majority3": timing})


@pytest.fixture(scope="session")
def three_segment_library():
    """Continuous three-segment uniform library spanning 100..300 ps."""
    timing = CellTiming(
        c2q=PiecewiseLinear(BP3, ((0.02, 8.0),) * 3),
        setup=PiecewiseLinear(BP3, ((0.01, 4.0),) * 3),
        hold=PiecewiseLinear(BP3, ((0.01, 3.0),) * 3),
        rd=PiecewiseLinear(BP3, ((0.30, 6.0), (0.36, 0.0), (0.30, 12.0))),
    )
    cells = {name: timing for name in ("buffer", "majority3", "splitter2", "splitter3", "splitter4")}
    return make_library(cells, bps=BP3)


@pytest.fixture(scope="session")
def ref_lib():
    return reference_library()


@pytest.fixture
def two_row_circuit():
    """The worked 2-row example: prop 5 ps, base clock difference 2 ps."""
    return Circuit(
        name="fix2row",
        num_rows=2,
        gates=(
            Gate(id="a", cell="majority3", row=0, clock_offset=0.0),
            Gate(id="b", cell="majority3", row=1, clock_offset=2.0),
        ),
        connections=(Connection(src="a", dst="b", length=5.0, prop=5.0),),
    )
