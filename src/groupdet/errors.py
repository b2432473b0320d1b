"""Exception types shared across the package."""


class GroupDetError(Exception):
    """Base class for all package-specific errors."""


class InexactDivision(GroupDetError):
    """An exact-division step left a remainder."""


class NotInteger(GroupDetError):
    """A value that must certify as a rational integer failed the check."""


class InvalidParameter(GroupDetError):
    """A constructor or operation received out-of-domain parameters."""


class PreconditionViolated(GroupDetError):
    """A stated precondition does not hold for the given input."""


class BudgetExceeded(GroupDetError):
    """An enumeration would exceed the configured evaluation budget."""


class RootFindingFailed(GroupDetError):
    """The simultaneous root iteration did not converge within its bounds."""


class ZeroPolynomial(GroupDetError):
    """A measure was requested for an identically-zero polynomial."""


class ZeroSlice(GroupDetError):
    """A torus slice vanished identically during numeric integration."""


class ParseError(GroupDetError):
    """Malformed polynomial JSON or expression text."""
