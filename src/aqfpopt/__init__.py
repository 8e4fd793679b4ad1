"""Post-routing optimization toolkit for delay-line-clocked AQFP circuits.

The package is organized around a small set of immutable domain types
(:mod:`aqfpopt.model`), JSON ingestion (:mod:`aqfpopt.ingest`), buffer-chain
removal (:mod:`aqfpopt.bufferopt`), setup/hold constraint generation and an
independent STA oracle (:mod:`aqfpopt.timing`), the segment-enumerating
schedule solver (:mod:`aqfpopt.solver`), and a command-line front end
(:mod:`aqfpopt.cli`).
"""

from aqfpopt.model import (
    BufferChain,
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
    "BufferChain",
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
