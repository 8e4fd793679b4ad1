"""Domain types shared across the toolkit.

Every record is a named tuple, cheap to build and to import, and is not
changed after construction. A circuit holds its gates and connections as
column tables (:class:`Table`), which the package never changes either. A
record that coerces or checks its fields does so in ``__new__``, and its
copies made with ``_replace`` pass through the same checks. Units
are fixed throughout the package: times in ps, lengths in um, frequencies
in GHz (frequency = 1000 / period_ps).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional

#: ``QPRO_LOG`` values and the least severity each one lets through.
LOG_LEVELS = {"error": 40, "warn": 30, "info": 20, "debug": 10}


class _StderrLog:
    """The package's log: ``LEVEL aqfpopt: message`` lines, each written to the
    ``sys.stderr`` current at the time, so a caller that swaps stderr (a test
    capturing it) gets its own lines. ``level`` is the least severity written."""

    level = LOG_LEVELS["warn"]

    def _write(self, severity: int, name: str, msg: str, args: tuple) -> None:
        if severity >= self.level:
            sys.stderr.write(f"{name} aqfpopt: {msg % args if args else msg}\n")
            sys.stderr.flush()

    def warning(self, msg: str, *args) -> None:
        self._write(LOG_LEVELS["warn"], "WARNING", msg, args)

    def info(self, msg: str, *args) -> None:
        self._write(LOG_LEVELS["info"], "INFO", msg, args)


log = _StderrLog()


class _Checked:
    """Base of a named tuple whose ``__new__`` coerces and checks its fields.
    The generated ``_make``, which ``_replace`` calls, skips ``__new__``; this
    one goes through it, so every copy is checked too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


BUFFER_CELL = "buffer"
HOLD_MODES = ("reset-delay", "dlplace")  # hold windows: the cell's true reset delay, or the full period
CRITERIA = ("period", "latency", "slack")  # what a schedule is judged by, in the default priority

#: Absolute tolerance (ps) above which adjacent piecewise-linear segments are
#: reported as discontinuous. Discontinuous libraries are legal but suspicious.
CONTINUITY_TOL = 1e-9


def segment_owning(breakpoints, t: float) -> int:
    """Index of the breakpoint interval owning ``t``: a breakpoint is its lower segment's."""
    return max(0, bisect_left(breakpoints, t) - 1)


class PwlDomainError(ValueError):
    """Evaluation of a piecewise-linear function outside its domain."""


class Diagnostic(NamedTuple):
    """Machine-readable finding produced by a validation pass."""

    code: str
    entity: str
    message: str
    severity: str = "error"  # "error" or "warning"

    def __str__(self) -> str:
        return f"[{self.code}] {self.entity}: {self.message}"


class ValidationError(ValueError):
    """Hard failure carrying the structured diagnostics that caused it."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class InfeasibleScheduleError(ValidationError):
    """No schedule meets the constraints, or the solver broke down numerically."""


class VerificationError(ValidationError):
    """A stored report's schedule breaks the timing rules or disagrees with its own figures."""


#: Tolerance used when a lexicographic stage fixes its criterion.
FIX_TOL = 1e-6


class _PiecewiseLinearFields(NamedTuple):
    breakpoints: tuple[float, ...]
    segments: tuple[tuple[float, float], ...]


class PiecewiseLinear(_Checked, _PiecewiseLinearFields):
    """Piecewise-linear function of the clock period.

    ``segments[k]`` is the ``(slope, intercept)`` pair active on the interval
    ``(breakpoints[k], breakpoints[k+1]]``. Intervals are half-open on the
    left: a period landing exactly on an interior breakpoint resolves to the
    lower-indexed segment, which keeps boundary behaviour deterministic and
    the feasible sets of the per-segment LPs closed.
    """

    __slots__ = ()

    def __new__(cls, breakpoints, segments):
        bps = tuple(float(b) for b in breakpoints)
        segs = tuple((float(s), float(i)) for s, i in segments)
        errs = []
        if len(bps) < 2:
            errs.append(Diagnostic("ARITY_MISMATCH", "pwl", "need at least two breakpoints"))
        elif len(segs) != len(bps) - 1:
            errs.append(
                Diagnostic("ARITY_MISMATCH", "pwl", f"{len(segs)} segments for {len(bps)} breakpoints")
            )
        if bps and bps[0] < 0:
            errs.append(Diagnostic("NEGATIVE_BREAKPOINT", "pwl", "first breakpoint must be >= 0"))
        if any(a >= b for a, b in zip(bps, bps[1:])):
            errs.append(
                Diagnostic("NONMONOTONE_BREAKPOINTS", "pwl", "breakpoints must be strictly increasing")
            )
        if errs:
            raise ValidationError(errs)
        return super().__new__(cls, bps, segs)

    @property
    def t_lo(self) -> float:
        return self.breakpoints[0]

    @property
    def t_hi(self) -> float:
        return self.breakpoints[-1]

    def segment_of(self, t: float) -> int:
        """Index of the segment owning ``t`` (lower segment owns breakpoints)."""
        if not self.t_lo < t <= self.t_hi:
            raise PwlDomainError(
                f"t={t!r} outside the valid interval ({self.t_lo}, {self.t_hi}]"
            )
        return segment_owning(self.breakpoints, t)

    def __call__(self, t: float) -> float:
        slope, intercept = self.segments[self.segment_of(t)]
        return slope * t + intercept

    def jump_at(self, k: int) -> float:
        """Signed jump (ps) from segment k-1 to segment k at breakpoint k.

        A jump within ``CONTINUITY_TOL`` reads as 0.0.
        """
        b = self.breakpoints[k]
        (sl, il), (sr, ir) = self.segments[k - 1], self.segments[k]
        jump = (sr * b + ir) - (sl * b + il)
        return jump if abs(jump) > CONTINUITY_TOL else 0.0


class CellTiming(NamedTuple):
    """Per-cell timing functions over the library-wide period breakpoints."""

    c2q: PiecewiseLinear
    setup: PiecewiseLinear
    hold: PiecewiseLinear
    rd: PiecewiseLinear

    def functions(self) -> dict[str, PiecewiseLinear]:
        return {"c2q": self.c2q, "setup": self.setup, "hold": self.hold, "rd": self.rd}


class _CellLibraryFields(NamedTuple):
    cells: dict[str, CellTiming]
    breakpoints: tuple[float, ...]
    l_max_drive: float  # um, longest reliably drivable interconnect
    l_buffer: float  # um, intrinsic pin-to-pin length of a buffer cell
    prop_per_um: float  # ps/um
    t_min: float  # ps
    t_max: float  # ps
    max_frequency: float  # GHz, adiabatic limit of the library


class CellLibrary(_Checked, _CellLibraryFields):
    """Cell timing plus the interconnect constants shared by all passes."""

    __slots__ = ()

    def __new__(cls, cells, breakpoints, *args, **kwargs):
        return super().__new__(cls, cells, tuple(float(b) for b in breakpoints), *args, **kwargs)

    def timing(self, cell: str) -> CellTiming:
        return self.cells[cell]

    @property
    def period_lo(self) -> float:
        """Effective lower period bound: t_min clipped by the frequency limit."""
        if self.max_frequency > 0:
            return max(self.t_min, 1000.0 / self.max_frequency)
        return self.t_min


def validate_library(lib: CellLibrary) -> list[Diagnostic]:
    """Check library invariants; errors and warnings share the returned list."""
    out: list[Diagnostic] = []
    if not lib.cells:
        out.append(Diagnostic("EMPTY_LIBRARY", "library", "library defines no cells"))
        return out
    if not (lib.l_max_drive > lib.l_buffer > 0):
        out.append(
            Diagnostic(
                "INVALID_INTERCONNECT",
                "library",
                f"need l_max_drive > l_buffer > 0, got {lib.l_max_drive} / {lib.l_buffer}",
            )
        )
    if lib.prop_per_um <= 0:
        out.append(Diagnostic("INVALID_INTERCONNECT", "library", "prop_per_um must be > 0"))
    if not (0 < lib.t_min < lib.t_max):
        out.append(
            Diagnostic(
                "INVALID_PERIOD_RANGE", "library", f"need 0 < t_min < t_max, got {lib.t_min}..{lib.t_max}"
            )
        )
    if lib.max_frequency <= 0:
        out.append(Diagnostic("INVALID_PERIOD_RANGE", "library", "max_frequency must be > 0"))
    shared = False
    for name, cell in sorted(lib.cells.items()):
        for fname, fn in cell.functions().items():
            ent = f"{name}.{fname}"
            if fn.breakpoints != lib.breakpoints:
                out.append(
                    Diagnostic(
                        "SHARED_BREAKPOINTS_REQUIRED",
                        ent,
                        "all cell functions must share the library breakpoints",
                    )
                )
                continue
            shared = True
            for k in range(1, len(fn.breakpoints) - 1):
                jump = fn.jump_at(k)
                if jump:
                    out.append(
                        Diagnostic(
                            "PWL_DISCONTINUITY",
                            ent,
                            f"jump of {jump:.6g} ps at breakpoint {fn.breakpoints[k]} ps",
                            severity="warning",
                        )
                    )
    # The span belongs to the grid, so it is checked once for every function sharing it.
    bps = lib.breakpoints
    if shared and not (bps[0] < lib.t_min and bps[-1] >= lib.t_max):
        out.append(Diagnostic("BREAKPOINT_SPAN", "library",
                              f"breakpoints ({bps[0]}, {bps[-1]}] do not cover [{lib.t_min}, {lib.t_max}]"))
    # Reset delay must stay below the period over [t_min, t_max]. rd(t) - t is
    # affine on each segment, so its maximum sits at an end of the segment's
    # clipped interval; at an open lower breakpoint the affine value there is
    # the right-hand limit, approached by periods the segment owns.
    for name, cell in sorted(lib.cells.items()):
        rd = cell.rd
        if rd.breakpoints != lib.breakpoints:
            continue
        for k, (a, b) in enumerate(rd.segments):
            lo = max(rd.breakpoints[k], lib.t_min)
            hi = min(rd.breakpoints[k + 1], lib.t_max)
            if lo > hi or hi == rd.breakpoints[k]:
                continue
            excess, t = max(((a - 1.0) * t + b, t) for t in (lo, hi))
            if excess >= 0.0:
                out.append(
                    Diagnostic(
                        "RESET_EXCEEDS_PERIOD",
                        f"{name}.rd",
                        f"rd(t) - t reaches {excess:.6g} ps at t = {t:.6g} ps on segment {k}",
                        severity="warning",
                    )
                )
                break
    return out


class Gate(NamedTuple):
    """A clocked cell instance placed in a row of the pipeline: one row of
    a :class:`GateTable`.

    ``clock_offset`` is the cumulative base clock propagation delay from the
    chip clock input to this gate's tap, excluding every optimizable
    inter-row increment.
    """

    id: str
    cell: str
    row: int
    clock_offset: float  # ps


class Connection(NamedTuple):
    """A routed data connection between two gates in increasing rows: one
    row of a :class:`ConnectionTable`."""

    src: str
    dst: str
    length: float  # um, routed pin-to-pin wire length
    prop: Optional[float] = None  # ps, extracted delay; None = length-derived


class Table:
    """Equal-length columns, one list per field of the named tuple type
    ``record``, each an attribute under its field's name. A subclass names
    its record type: ``class GateTable(Table, record=Gate)``.

    The package reads the columns; ``at`` builds the record of one row.
    """

    record: type

    def __init_subclass__(cls, record):
        cls.record = record

    def __init__(self, *columns):
        for name, column in zip(self.record._fields, columns, strict=True):
            setattr(self, name, column)

    @classmethod
    def of(cls, rows):
        """``rows`` itself if it is such a table, else the table of the ``record`` rows in ``rows``."""
        if isinstance(rows, cls):
            return rows
        return cls(*(list(map(list, zip(*rows))) or [[] for _ in cls.record._fields]))

    def columns(self) -> list:
        return [getattr(self, name) for name in self.record._fields]

    def take(self, keep, extra=()) -> "Table":
        """The table of the rows at the indices ``keep``, followed by the records ``extra``."""
        return type(self)(*([col[i] for i in keep] + [row[f] for row in extra] for f, col in enumerate(self.columns())))

    def __len__(self) -> int:
        return len(getattr(self, self.record._fields[0]))

    def at(self, i: int):
        """The ``record`` of row ``i``."""
        return self.record._make([col[i] for col in self.columns()])


class GateTable(Table, record=Gate):
    pass


class ConnectionTable(Table, record=Connection):
    pass


class _CircuitFields(NamedTuple):
    name: str
    num_rows: int
    gates: GateTable
    connections: ConnectionTable


class Circuit(_Checked, _CircuitFields):
    """A netlist held as columns, with no record per gate or connection.

    ``gates`` has the columns ``id``, ``cell``, ``row`` and
    ``clock_offset``; ``connections`` has ``src``, ``dst``, ``length`` and
    ``prop``, where a ``prop`` may be None. Either may be given as
    :class:`Gate` or :class:`Connection` records, which become columns. Unlike
    the other records a circuit has an instance ``__dict__``, which caches the
    connections' endpoints once they are resolved. The gate index is built
    on each use and not kept: on a large circuit it is a dict as large as a
    column of floats, and only validation and buffer removal read it.
    """

    def __new__(cls, name, num_rows, gates, connections):
        return super().__new__(cls, name, num_rows, GateTable.of(gates), ConnectionTable.of(connections))

    @property
    def gate_index(self) -> dict[str, int]:
        """The position of each gate id in the gate columns; the first one of a repeated id."""
        n = len(self.gates)
        return dict(zip(reversed(self.gates.id), range(n - 1, -1, -1)))  # the first position is written last

    @cached_property
    def endpoints(self) -> tuple[list[Optional[int]], list[Optional[int]]]:
        """The gate index of each connection's source, and of its sink; None for an id that names no gate."""
        return self.resolve_endpoints(self.gate_index)

    def resolve_endpoints(self, gate_index: dict[str, int]) -> tuple[list[Optional[int]], list[Optional[int]]]:
        """The endpoints by ``gate_index``, kept as ``endpoints`` from now on."""
        k, index = self.connections, gate_index.get
        self.__dict__["endpoints"] = ends = list(map(index, k.src)), list(map(index, k.dst))
        return ends


def validate_circuit(c: Circuit, lib: CellLibrary) -> list[Diagnostic]:
    """Return error diagnostics; an empty list means the circuit is well formed.

    Non-fatal observations (a clock tap order decreasing along a row) are
    logged rather than returned, so the empty-list contract stays sharp.
    The gate index is built here once, and each connection's endpoints are
    resolved by it; the later passes read them from ``c.endpoints``.
    """
    out: list[Diagnostic] = []
    by_row: dict[int, float] = {}
    num_rows, cells, index = c.num_rows, lib.cells, c.gate_index
    endpoints = c.resolve_endpoints(index)
    g = c.gates
    for i, (gid, cell, row, offset) in enumerate(zip(g.id, g.cell, g.row, g.clock_offset)):
        if index[gid] != i:  # an earlier gate has this id
            out.append(Diagnostic("DUPLICATE_ID", gid, "gate id appears more than once"))
        if not 0 <= row < num_rows:
            out.append(
                Diagnostic("ROW_OUT_OF_RANGE", gid, f"row {row} outside 0..{num_rows - 1}")
            )
        if cell not in cells:
            out.append(Diagnostic("UNKNOWN_CELL", gid, f"cell type {cell!r} not in library"))
        prev = by_row.get(row)
        if prev is None:
            by_row[row] = offset
            continue
        if offset < prev - 1e-12:
            log.warning(
                "clock_offset of %s decreases along row %d (%.6g after %.6g)",
                gid,
                row,
                offset,
                prev,
            )
        elif offset > prev:  # the row's running maximum
            by_row[row] = offset
    rows = g.row
    l_max_drive = lib.l_max_drive
    k = c.connections
    for src, dst, src_id, dst_id, length in zip(*endpoints, k.src, k.dst, k.length):
        if src is None or dst is None:
            for gid, i in ((src_id, src), (dst_id, dst)):
                if i is None:
                    message = f"endpoint {gid!r} is not a gate"
                    out.append(Diagnostic("UNKNOWN_GATE", f"{src_id}->{dst_id}", message))
            continue
        if rows[dst] - rows[src] < 1:
            out.append(
                Diagnostic(
                    "NONMONOTONE_ROW",
                    f"{src_id}->{dst_id}",
                    f"row({dst_id})={rows[dst]} must exceed row({src_id})={rows[src]}",
                )
            )
        if length > l_max_drive:
            out.append(
                Diagnostic(
                    "LENGTH_EXCEEDS_DRIVE",
                    f"{src_id}->{dst_id}",
                    f"length {length} um exceeds l_max_drive {l_max_drive} um",
                )
            )
        if length < 0:
            out.append(Diagnostic("NEGATIVE_LENGTH", f"{src_id}->{dst_id}", "length must be >= 0"))
    return out


class _ScheduleFields(NamedTuple):
    period: float  # ps
    row_deltas: tuple[float, ...]  # ps, one per row boundary
    slack: float  # ps, uniform margin S achieved by the solver
    latency: float  # ps, sum of row_deltas
    segment_index: int = 0


class Schedule(_Checked, _ScheduleFields):
    """A solved clock-delay schedule."""

    __slots__ = ()

    def __new__(cls, period, row_deltas, *args, **kwargs):
        return super().__new__(cls, period, tuple(float(d) for d in row_deltas), *args, **kwargs)


class Rule(NamedTuple):
    """An input field's rule: ``holds`` tells whether every value of a list passes, ``text`` names it."""

    holds: Callable[[list], bool]
    text: str


def _reals(values: list, kinds=frozenset((float, int))) -> bool:
    """Whether each value is of one of ``kinds``, each int one that a float can hold."""
    found = set(map(type, values))  # a JSON true or false decodes to a bool, which is no number
    if int in found and found <= kinds:
        try:
            list(map(float, filter(None, values)))
        except OverflowError:  # an int past the float range
            return False
    return found <= kinds


def _finite_reals(values: list, kinds=frozenset((float, int))) -> bool:
    return _reals(values, kinds) and all(map(math.isfinite, filter(None, values)))  # filter drops None and zeros


STRING = Rule(lambda values: set(map(type, values)) <= {str}, "a string")
INTEGER = Rule(lambda values: set(map(type, values)) <= {int}, "an integer")
REAL = Rule(_reals, "a real number")
FINITE = Rule(_finite_reals, "a finite number")
FINITE_OR_NULL = Rule(partial(_finite_reals, kinds=frozenset((float, int, type(None)))), "a finite number or null")


class _OptimizationConfigFields(NamedTuple):
    tau: float = 1.0
    sigma: float = 1e-8
    lam: float = 1e-4
    s_min: float = 0.0
    s_max: float = 50.0
    t_min_override: Optional[float] = None
    t_max_override: Optional[float] = None
    hold_mode: str = "reset-delay"  # one of HOLD_MODES
    priority_mode: str = "lexicographic"  # or "weighted"
    priority: tuple[str, ...] = CRITERIA
    max_skip: int = 2  # largest supported connection row span


_CONFIG_NUMBERS = ("tau", "sigma", "lam", "s_min", "s_max")
_CONFIG_OVERRIDES = ("t_min_override", "t_max_override")  # numbers, or None when unset


class OptimizationConfig(_Checked, _OptimizationConfigFields):
    """User-facing knobs of the schedule optimization.

    The weighted objective minimizes ``tau*T - sigma*S + lam*L``. Defaults
    emulate a strong period >> latency >> slack priority. In lexicographic
    mode the ``priority`` order is optimized criterion by criterion instead.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        mistyped = [name for name in _CONFIG_NUMBERS if not REAL.holds([getattr(self, name)])]
        mistyped += [name for name in _CONFIG_OVERRIDES if getattr(self, name) is not None
                     and not REAL.holds([getattr(self, name)])]
        errs = [Diagnostic("INVALID_CONFIG", name, f"{name} must be {REAL.text}") for name in mistyped]
        if not mistyped:  # the numbers compare only when all of them are numbers
            errs += self._number_errors()
        if self.hold_mode not in HOLD_MODES:
            errs.append(Diagnostic("INVALID_CONFIG", "hold_mode", f"unknown mode {self.hold_mode!r}"))
        if self.priority_mode not in ("weighted", "lexicographic"):
            errs.append(
                Diagnostic("INVALID_CONFIG", "priority_mode", f"unknown mode {self.priority_mode!r}")
            )
        try:
            priority_ok = sorted(self.priority) == sorted(CRITERIA)
        except TypeError:  # None, a number, or names mixed with other types
            priority_ok = False
        if not priority_ok:
            errs.append(
                Diagnostic(
                    "INVALID_CONFIG",
                    "priority",
                    "priority must order period, latency and slack exactly once each",
                )
            )
        if not (INTEGER.holds([self.max_skip]) and self.max_skip >= 1):
            errs.append(Diagnostic("INVALID_CONFIG", "max_skip", "max_skip must be an integer >= 1"))
        if errs:
            raise ValidationError(errs)
        return self

    def _number_errors(self) -> list[Diagnostic]:
        """The diagnostics of the numeric fields, once each is a real number or an unset override."""
        errs = []
        numbers = [getattr(self, name) for name in _CONFIG_NUMBERS + _CONFIG_OVERRIDES]
        if not FINITE_OR_NULL.holds(numbers):
            errs.append(Diagnostic("INVALID_CONFIG", "config", "numeric settings must be finite"))
        if self.s_min > self.s_max:
            errs.append(Diagnostic("INVALID_CONFIG", "s_min", "s_min must be <= s_max"))
        if None not in (self.t_min_override, self.t_max_override) and self.t_min_override > self.t_max_override:
            errs.append(Diagnostic("INVALID_CONFIG", "t_min_override", "t_min_override must be <= t_max_override"))
        if min(self.tau, self.sigma, self.lam) < 0:
            errs.append(Diagnostic("INVALID_CONFIG", "weights", "weights must be >= 0"))
        if self.tau == self.sigma == self.lam == 0:
            errs.append(Diagnostic("INVALID_CONFIG", "weights", "weights must not all be zero"))
        return errs

    def period_bounds(self, lib: CellLibrary) -> tuple[float, float]:
        lo = lib.period_lo if self.t_min_override is None else max(self.t_min_override, lib.period_lo)
        hi = lib.t_max if self.t_max_override is None else min(self.t_max_override, lib.t_max)
        return lo, hi


#: Built-in sweep presets, each the config fields it sets over the defaults.
#: table1a/1b/1c are single optimizer configurations at different priorities;
#: table3 pairs a baseline run of table1a's config against a buffer-removal
#: run and reports the relative change.
PRESETS = {"table1a": {}, "table1b": {"s_min": 5.0}, "table1c": {"priority": ("period", "slack", "latency")},
           "table3": {}}
