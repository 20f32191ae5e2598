"""Exception types shared across the package.

Every error a caller is expected to handle programmatically gets its own
class; plain ValueError is reserved for garden-variety bad arguments
(e.g. a non-positive support threshold).
"""


class MaxpatError(Exception):
    """Base class for all package-specific errors."""


class PatternError(MaxpatError):
    """A pattern violates its domain invariants (duplicate sequence labels,
    self-loops, edge endpoints outside the vertex set, ...)."""


class DomainMismatchError(MaxpatError):
    """An operation was given operands from incompatible domains, e.g. a
    sequence compared against an itemset transaction, or a directed graph
    against an undirected one."""


class DatabaseError(MaxpatError):
    """A database-level invariant failed.  Carries the offending transaction
    index when one is known."""

    def __init__(self, message, index=None):
        super().__init__(message if index is None
                         else f"transaction {index}: {message}")
        self.index = index


class ReductionIdError(MaxpatError, ValueError):
    """A reduction id names no reduction, or a ``compose:`` chain has fewer
    than two links or an empty one."""


class NoPreimageError(MaxpatError):
    """A reduction inverse was required but does not exist for the given
    target pattern."""


class ExtendError(MaxpatError):
    """The known-set handed to extend/extendible is not a set of maximal
    patterns, or the cardinality bound of the k-bounded variant is violated."""


class OracleGuardError(MaxpatError):
    """The brute-force oracle refused an instance above its size guard."""


class ParseError(MaxpatError):
    """An input file could not be parsed.  Carries a 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
