"""Shared exception types."""


class ScopeError(ValueError):
    """Raised when inputs fall outside the range the closed-form results cover
    (for example level p^n with p in {2, 3})."""


class InputError(ValueError):
    """Raised when the caller's arguments are malformed (a level N < 1, an
    exponent n < 1, a delta that does not divide N, an unparsable eta
    quotient); the CLI reports it as a usage error."""


class NotModularError(ValueError):
    """Raised when an eta quotient fails the Ligozat modularity conditions.

    Carries the full four-condition report as `.report`.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report
