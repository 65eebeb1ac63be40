"""Curved hexagonal packings of congruent disks in regular polygons."""

from .chp import (
    CIRCLE,
    BorderSolution,
    CountInput,
    Dna,
    canonicalize_dna,
    chp_density,
    count_configurations,
    disk_count,
    enumerate_dnas,
    solve_border,
)
from .errors import (
    AmbiguousStart,
    CapExceeded,
    ChpError,
    CoincidentPoints,
    ConstructionFailed,
    InconsistentDna,
    NoPath,
    NoSolution,
    NotMultipleOfSix,
    ParseError,
    PreconditionViolated,
    SchemaMismatch,
)
from .builder import PackingConfiguration, build_chp, extract_dna
from .optimizer import (
    OptimizerParams,
    algorithm1,
    algorithm2,
    seed_guided,
)
from .validation import (
    ValidationReport,
    density,
    equivalent,
    packing_radius,
    validate_config,
)

__version__ = "0.1.0"

__all__ = [
    "CIRCLE",
    "BorderSolution",
    "CountInput",
    "Dna",
    "canonicalize_dna",
    "chp_density",
    "count_configurations",
    "disk_count",
    "enumerate_dnas",
    "solve_border",
    "PackingConfiguration",
    "build_chp",
    "extract_dna",
    "OptimizerParams",
    "algorithm1",
    "algorithm2",
    "seed_guided",
    "ValidationReport",
    "density",
    "equivalent",
    "packing_radius",
    "validate_config",
    "AmbiguousStart",
    "CapExceeded",
    "ChpError",
    "CoincidentPoints",
    "ConstructionFailed",
    "InconsistentDna",
    "NoPath",
    "NoSolution",
    "NotMultipleOfSix",
    "ParseError",
    "PreconditionViolated",
    "SchemaMismatch",
    "__version__",
]
