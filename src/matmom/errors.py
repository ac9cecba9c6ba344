"""Exception types shared across the package.

A solve raises ``Unsolvable`` only through the verdict of its solvability
check (the block Hankel pair, or S_0 PSD at l = 0).  Once that verdict has
passed, any failure of the construction or of the solve's own verification
is a ``NumericalInconsistency``, never a verdict on the data.
"""


class MatmomError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MatmomError, ValueError):
    """Bad input: malformed matrices, out-of-range parameters, unreadable files."""


class Unsolvable(MatmomError):
    """The given moment data admits no representing measure."""


class NumericalInconsistency(MatmomError):
    """An internal numerical contract was violated.

    Signals an upstream tolerance or rank decision gone wrong rather than a
    property of the input problem.
    """
