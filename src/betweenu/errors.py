"""Exception types shared across the package."""


class BetweenuError(Exception):
    """Base class for domain errors raised by this package: the message,
    then by keyword each name in ``fields``, None where not given, so
    ``vars(exc)`` holds exactly ``fields`` and every error pickles."""

    fields: tuple[str, ...] = ()

    def __init__(self, message: str, **where):
        super().__init__(message)
        for name in self.fields:
            setattr(self, name, where.pop(name, None))
        if where:
            raise TypeError(f"{type(self).__name__} takes no context {', '.join(sorted(where))}")


class DegeneratePreference(BetweenuError):
    """No strictly ranked pair exists where one is required."""


class NonMonotoneChord(BetweenuError):
    """Bracketing comparisons along the reference chord are inconsistent;
    ``row`` holds the first lottery outside the extremes' preference range."""

    fields = ("row",)


class IterationLimit(BetweenuError):
    """A root search failed to converge within its iteration budget.

    ``what`` names the solve and ``iterations`` its step budget;
    ``level`` and ``row`` are the chord level and the lottery of its
    first row still running.
    """

    fields = ("what", "iterations", "level", "row")


class NoCrossing(BetweenuError):
    """A segment expected to straddle an indifference level does not;
    ``level`` and ``row`` locate the first failing mixing solve."""

    fields = ("level", "row")


class MultipleFixedPoints(BetweenuError):
    """The scanned utility profile crosses the diagonal more than once;
    ``row`` holds the offending lottery."""

    fields = ("row",)


class Infeasible(BetweenuError):
    """The separation program has no solution on the sampled data.

    ``level`` is the program's chord level and ``certificate`` the
    :class:`~betweenu.separation.FarkasCertificate` proving it
    infeasible; each one raised by :mod:`betweenu.separation` has both.
    """

    fields = ("level", "certificate")


class MembershipViolation(BetweenuError):
    """A point lies outside the polytope hull it was claimed to belong to."""
