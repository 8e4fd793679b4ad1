"""Write the benchmark's cell-library files.

Usage: python3 perfbench/make_libraries.py OUT_DIR

Writes OUT_DIR/reference.qlib.json, the library shipped with aqfpopt, and
OUT_DIR/three-segment.qlib.json, a continuous three-segment uniform library
over 100..300 ps with t_min 100 ps and a 10 GHz limit (the same library as
the ``three_segment_library`` test fixture).
"""

import sys
from pathlib import Path

from aqfpopt.cli import reference_library
from aqfpopt.ingest import serialize_library
from aqfpopt.model import CellLibrary, CellTiming, PiecewiseLinear

BREAKPOINTS = (0.0, 100.0, 200.0, 300.0)


def three_segment_library() -> CellLibrary:
    timing = CellTiming(
        c2q=PiecewiseLinear(BREAKPOINTS, ((0.02, 8.0),) * 3),
        setup=PiecewiseLinear(BREAKPOINTS, ((0.01, 4.0),) * 3),
        hold=PiecewiseLinear(BREAKPOINTS, ((0.01, 3.0),) * 3),
        rd=PiecewiseLinear(BREAKPOINTS, ((0.30, 6.0), (0.36, 0.0), (0.30, 12.0))),
    )
    cells = {name: timing for name in ("buffer", "majority3", "splitter2", "splitter3", "splitter4")}
    return CellLibrary(cells=cells, breakpoints=BREAKPOINTS, l_max_drive=120.0, l_buffer=10.0,
                       prop_per_um=1.0, t_min=100.0, t_max=300.0, max_frequency=10.0)


def main(out_dir: str) -> int:
    out = Path(out_dir)
    (out / "reference.qlib.json").write_text(serialize_library(reference_library()), encoding="utf-8")
    (out / "three-segment.qlib.json").write_text(serialize_library(three_segment_library()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
