"""Exception types shared across the package."""


class BetweenuError(Exception):
    """Base class for domain errors raised by this package."""


class DegeneratePreference(BetweenuError):
    """No strictly ranked pair exists where one is required."""


class NonMonotoneChord(BetweenuError):
    """Bracketing comparisons along the reference chord are inconsistent.

    ``row`` holds the probabilities of the first lottery outside the
    extremes' preference range, or None.
    """

    def __init__(self, message: str, row: tuple[float, ...] | None = None):
        super().__init__(message)
        self.row = row


class IterationLimit(BetweenuError):
    """A root search failed to converge within its iteration budget.

    ``what`` names the solve and ``iterations`` its step budget;
    ``level`` and ``row`` are the chord level and the lottery's
    probabilities of its first row still running, where known, or None.
    """

    def __init__(self, message: str, what: str, iterations: int, level=None, row=None):
        super().__init__(message)
        self.what, self.iterations, self.level, self.row = what, iterations, level, row


class NoCrossing(BetweenuError):
    """A segment expected to straddle an indifference level does not.

    ``level`` holds the chord level and ``row`` the lottery's
    probabilities of the first failing mixing solve, or None.
    """

    def __init__(
        self,
        message: str,
        level: float | None = None,
        row: tuple[float, ...] | None = None,
    ):
        super().__init__(message)
        self.level = level
        self.row = row


class MultipleFixedPoints(BetweenuError):
    """The scanned utility profile crosses the diagonal more than once.

    ``row`` holds the offending lottery's probabilities, or None.
    """

    def __init__(self, message: str, row: tuple[float, ...] | None = None):
        super().__init__(message)
        self.row = row


class Infeasible(BetweenuError):
    """The separation program has no solution on the sampled data.

    ``level`` is the chord level of the program, or None.  ``certificate``
    is the :class:`~betweenu.separation.FarkasCertificate` that proves the
    program infeasible, which every infeasible program raised by
    :mod:`betweenu.separation` carries, or None.
    """

    def __init__(self, message: str, level: float | None = None, certificate=None):
        super().__init__(message)
        self.level = level
        self.certificate = certificate


class MembershipViolation(BetweenuError):
    """A point lies outside the polytope hull it was claimed to belong to."""
