"""Exception types raised across the toolkit.

Everything derives from :class:`ZecsError` so callers can catch the whole
family at once.  Plain built-ins are used where they are the natural fit
(``IndexError`` for out-of-range qubit indices).
"""


class ZecsError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ZecsError):
    """A state or operator failed a physicality check (trace, PSD, norm)."""


class NotHermitianError(ValidationError):
    """Input matrix deviates from its adjoint beyond tolerance."""


class DimensionMismatchError(ZecsError):
    """Operands have incompatible dimensions."""


class SubsystemError(ZecsError):
    """Invalid subsystem / bipartition selection."""


class CircuitSpecError(ZecsError):
    """Bad circuit description (parameter count, repetitions, gate fields)."""


class RecordError(ZecsError):
    """Malformed measurement record (bad basis or bit characters, bad line)."""


class CoverageError(ZecsError):
    """A record does not cover the qubits requested from it."""


class MissingReferenceError(ZecsError):
    """No ideal reference state available for a subsystem."""


class InsufficientCandidatesError(ZecsError):
    """Too few comparison candidates for a meaningful statistic."""


class PathError(ZecsError):
    """Vertex sequence is not a simple path, or no path of the requested length exists."""


class SearchBudgetError(ZecsError):
    """Exhaustive search would exceed its enumeration budget."""


class ConfigError(ZecsError):
    """Invalid run configuration."""
