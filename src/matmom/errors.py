"""Exception types shared across the package."""


class MatmomError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MatmomError, ValueError):
    """Bad input: malformed matrices, out-of-range parameters, unreadable files."""


class Unsolvable(MatmomError):
    """The given moment data admits no representing measure."""


class OperatorIllDefined(Unsolvable):
    """The shift operator is not well defined on the Gram space.

    Raised when the domain vectors have a kernel direction that the shifted
    vectors do not annihilate: the kernel-inclusion diagnostic of the
    odd-case check fails.  The solves raise ``NumericalInconsistency`` in
    its place, since their check's verdict has passed.
    """


class NumericalInconsistency(MatmomError):
    """An internal numerical contract was violated.

    Signals an upstream tolerance or rank decision gone wrong rather than a
    property of the input problem.
    """
