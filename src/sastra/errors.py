"""Exception taxonomy shared by all sastra modules."""

__all__ = [
    "SastraError",
    "InputError",
    "PreconditionError",
    "DegenerateInputError",
    "NotApplicableError",
    "UnsupportedCombinationError",
    "ConfigError",
]


class SastraError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SastraError, ValueError):
    """Malformed input: dimension mismatch, wrong family, bad parameter."""


class PreconditionError(SastraError, ValueError):
    """A documented operation precondition does not hold (e.g. x outside the set)."""


class DegenerateInputError(SastraError, ValueError):
    """Input is formally valid but the operation is undefined on it."""


class NotApplicableError(SastraError, ValueError):
    """The algorithm's assumptions are not met by this problem."""


class UnsupportedCombinationError(SastraError, ValueError):
    """No closed form is implemented for this set/regularizer pair."""


class ConfigError(SastraError, ValueError):
    """Experiment configuration failed validation.

    Carries the full list of validation messages, not just the first.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
