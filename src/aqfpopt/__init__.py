"""Post-routing optimization toolkit for delay-line-clocked AQFP circuits.

The package is organized around a small set of immutable domain types
(:mod:`aqfpopt.model`), JSON ingestion (:mod:`aqfpopt.ingest`), buffer-chain
removal (:mod:`aqfpopt.bufferopt`), setup/hold constraint generation and an
independent STA oracle (:mod:`aqfpopt.timing`), the segment-enumerating
schedule solver (:mod:`aqfpopt.solver`), and a command-line front end
(:mod:`aqfpopt.cli`), which parses the arguments and maps failures to exit
codes. Each command lives in its own module, imported only when its command
runs: ``optimize`` and the schedule pipeline (:mod:`aqfpopt.optimize`),
``verify``'s report checks (:mod:`aqfpopt.verify`), the synthetic circuit
generator behind ``gen`` (:mod:`aqfpopt.generator`) and ``sweep``
(:mod:`aqfpopt.sweep`).
"""

from aqfpopt.model import (
    CellLibrary,
    CellTiming,
    Circuit,
    Connection,
    Diagnostic,
    Gate,
    OptimizationConfig,
    PiecewiseLinear,
    PwlDomainError,
    Schedule,
    ValidationError,
    validate_circuit,
    validate_library,
)

__version__ = "0.1.0"

__all__ = [
    "CellLibrary",
    "CellTiming",
    "Circuit",
    "Connection",
    "Diagnostic",
    "Gate",
    "OptimizationConfig",
    "PiecewiseLinear",
    "PwlDomainError",
    "Schedule",
    "ValidationError",
    "validate_circuit",
    "validate_library",
    "__version__",
]
