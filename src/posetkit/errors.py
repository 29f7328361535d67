"""Exception types shared across the package."""


class PosetError(Exception):
    """Base class for structural and input errors raised by this package."""


class InternalError(Exception):
    """An internal invariant failed: a bug in this package, not bad input.

    Deliberately not a PosetError, so no skip or input handler catches it.
    """


class CycleError(PosetError):
    """Transitive closure produced x <= y and y <= x for distinct x, y."""


class NotAFunction(PosetError):
    """An involution table is not a total bijection on the carrier."""


class MissingInvolution(PosetError):
    """The operation requires a poset that carries an involution."""


class MissingBounds(PosetError):
    """The operation requires a least and a greatest element."""


class NotComplemented(PosetError):
    """The involution is not a complementation, but one is required."""


class NotALattice(PosetError):
    """The input must be a lattice but some pair has no join or no meet."""


class NoRelativePseudocomplement(PosetError):
    """Some required relative pseudocomplement x*y does not exist."""


class SizeLimitExceeded(PosetError):
    """An enumeration went past its configured size cap."""


class UnboundedPart(PosetError):
    """A horizontal sum part lacks bounds or has identical bounds."""


class InvalidDiagram(PosetError):
    """A block diagram violates one of the admissibility conditions."""


class NotComplementClosed(PosetError):
    """A subset must be closed under the involution but is not."""


class ParseError(PosetError):
    """A document could not be parsed; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class CorpusError(PosetError):
    """A bundled corpus file failed its content digest check."""
