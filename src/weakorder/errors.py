"""Exception types shared across the package.

Every domain failure raises a subclass of :class:`WeakorderError`, so callers
(and the command line front end) can catch one base class and map it to a
nonzero exit status without special-casing each operation.
"""

from __future__ import annotations


class WeakorderError(Exception):
    """Base class for all domain errors raised by this package."""


class NotBiclosed(WeakorderError):
    """A pair set is not closed and coclosed, so no order realizes it."""


class MixedSizes(WeakorderError):
    """Operands live in symmetric groups (or period classes) of different sizes."""


class OutOfRange(WeakorderError):
    """An arc or value does not fit inside the requested ground set."""


class Crossing(WeakorderError):
    """A collection of arcs that must be pairwise non-crossing is not."""


class NotAWall(WeakorderError):
    """A reflection index is not a wall of the given order."""


class NotWrapped(WeakorderError):
    """An arc crosses one of its own translates, so it has no periodic join-irreducible."""


class NotWidelyGenerated(WeakorderError):
    """The order is not the join of the join-irreducibles below it."""


class ParseError(WeakorderError):
    """A textual form (window notation, arc notation, permutation word) is malformed."""


class InvalidWindows(WeakorderError):
    """Window notation parsed, but does not describe a valid periodic order."""


class InconsistentEncoding(WeakorderError):
    """A matrix of shift sets describes no periodic total order."""


class NotALattice(WeakorderError):
    """A finite poset is missing a least upper or greatest lower bound."""


class NotACongruence(WeakorderError):
    """A partition of a finite lattice is not a lattice congruence."""


class TooLarge(WeakorderError):
    """The requested enumeration exceeds the supported size bounds."""


class PreconditionViolated(WeakorderError):
    """Arguments do not satisfy a documented precondition of the operation."""
