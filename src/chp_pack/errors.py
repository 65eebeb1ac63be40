"""Exception types shared across the package."""


class ChpError(Exception):
    """Base class for all package errors."""


class NotMultipleOfSix(ChpError):
    """Raised when a polygon side count is not a positive multiple of six."""


class NoSolution(ChpError):
    """Raised when the border chain solver gets k < 1, asymmetric degeneracies,
    chord directions out of order, or a chain that does not close."""


class InconsistentDna(ChpError):
    """Raised when DNA letters do not spell the border's letter multiset, when
    a packing's contact paths disagree on its DNA, or when a vertex rotation
    of the border does not shift its letters."""


class ConstructionFailed(ChpError):
    """Raised when a built packing's DNA path misses the center, a disk
    leaves the container, or two disks overlap."""


class AmbiguousStart(ChpError):
    """Raised when other than exactly one disk sits at the fundamental vertex
    within tolerance: none, or two or more."""


class NoPath(ChpError):
    """Raised when no contact path of the expected length reaches the center."""


class CapExceeded(ChpError):
    """Raised when an enumeration would produce more items than its cap."""


class PreconditionViolated(ChpError):
    """Raised when a hand-made CountInput's degeneracies do not sum to k or
    give no whole count, a pin index is out of range, a search gets fewer
    than two disks, or a DNA is extracted under a sigma other than the
    configuration's."""


class CoincidentPoints(ChpError):
    """Raised when two centers coincide in a search's polish."""


class ParseError(ChpError):
    """Raised when a configuration file cannot be parsed."""


class SchemaMismatch(ParseError):
    """Raised when a configuration file declares an unsupported schema."""
