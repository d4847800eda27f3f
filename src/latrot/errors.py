"""Shared exception types."""


class LatrotError(Exception):
    """Base class for all library errors."""


class UndecidableAtPrecision(LatrotError):
    """A floor/comparison decision still straddles a boundary at the precision cap.

    Raised instead of guessing: a silently wrong floor would corrupt every
    census built on top of it.
    """


class InvalidSpec(LatrotError, ValueError):
    """Malformed angle or scalar specification."""


class CapExceeded(LatrotError):
    """A brute-force scan was requested beyond its configured cap."""


class DegenerateCounts(LatrotError):
    """Growth fitting rejected zero counts (log-log fit undefined)."""


class HypothesisViolated(LatrotError):
    """An identity check was invoked outside its hypothesis."""
