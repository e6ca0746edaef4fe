"""Exception hierarchy shared across the toolchain.

Every error that carries a source position formats itself as
``line:column: message`` so CLI output stays greppable.
"""

from __future__ import annotations


class LdmError(Exception):
    """Base class for every error raised by this package."""


class SourceError(LdmError):
    """An error anchored to a position in model source text."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(self.__str__())

    def __str__(self) -> str:
        if self.line:
            return f"{self.line}:{self.column}: {self.message}"
        return self.message


# --- frontend ---------------------------------------------------------------

class IllegalCharacterError(SourceError):
    """Lexer hit a character outside the language's alphabet."""


class ModelSyntaxError(SourceError):
    """Parser could not continue; carries an expected-token hint."""

    def __init__(self, message: str, line: int = 0, column: int = 0,
                 expected: str | None = None):
        self.expected = expected
        if expected:
            message = f"{message} (expected {expected})"
        super().__init__(message, line, column)


# --- model graph ------------------------------------------------------------

class GraphError(LdmError):
    """Structural problem discovered while building the model graph."""


class MissingIndexRangeError(GraphError):
    pass


class RangeConflictError(GraphError):
    pass


class OverlappingDefinitionsError(GraphError):
    pass


class UndefinedReferenceError(GraphError):
    pass


class CycleDetectedError(GraphError):
    def __init__(self, message: str, cycle: tuple[str, ...] = ()):
        self.cycle = cycle
        super().__init__(message)


# --- distributions ----------------------------------------------------------

class InvalidParameterError(LdmError):
    """Distribution parameter outside its constraint, outside the transform path."""


class NoTransformError(LdmError):
    """No bijection to unconstrained space exists (discrete support)."""


# --- data tables ------------------------------------------------------------

class TableError(LdmError):
    pass


class DuplicateIndexTupleError(TableError):
    pass


class UnparseableCellError(TableError):
    def __init__(self, message: str, row: int = 0, column: str = ""):
        self.row = row
        self.column = column
        super().__init__(message)


# --- plan compiler ----------------------------------------------------------

class BindError(LdmError):
    pass


class IndexStructureMismatchError(BindError):
    pass


class MissingDiscreteUnsupportedError(BindError):
    """A discrete-support site would need a latent slot (NaN cell or unobserved)."""


# --- evaluation -------------------------------------------------------------

class NonFiniteDensityError(LdmError):
    """NaN latent input reached the density evaluator."""


# --- sampler ----------------------------------------------------------------

class SamplerError(LdmError):
    pass


class InitializationFailedError(SamplerError):
    """No finite-density starting point found within the retry budget."""


class AllDivergentError(SamplerError):
    """Every post-warmup draw diverged; results would be meaningless."""


# --- posterior analysis -----------------------------------------------------

class NoImputedSitesError(LdmError):
    pass
