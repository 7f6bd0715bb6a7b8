"""Exception hierarchy and the CLI exit codes attached to it."""

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4
EXIT_CONSISTENCY = 5


class ReflFactError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_CONSISTENCY


class UsageError(ReflFactError):
    """Command line invoked with an argument combination that makes no sense."""

    exit_code = EXIT_USAGE


class ValidationError(ReflFactError, ValueError):
    """Malformed input: bad parameters, broken invariants, unparsable JSON."""

    exit_code = EXIT_VALIDATION


class ResourceLimitError(ReflFactError):
    """A computation was refused because it exceeds a configured budget."""

    exit_code = EXIT_RESOURCE


class ConsistencyError(ReflFactError):
    """Two routes to the same quantity disagreed, or stored data conflicts."""

    exit_code = EXIT_CONSISTENCY


class CacheConflictError(ConsistencyError):
    """A persistent cache holds two different values for one key."""


class UnderdeterminedFitError(ValidationError):
    """Too few independent sample points to pin down a polynomial fit."""


class FitInconsistencyError(ConsistencyError):
    """Sample data admits no single coefficient vector (e.g. hidden n-dependence)."""
