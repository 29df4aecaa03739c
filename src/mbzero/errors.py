"""Exception types shared across the library, and until_error, the
first-error rule of its batched evaluators.

One class per CLI exit code, each carrying the code `main` maps it to:
2 suspected missed zero, 3 numerical failure, 4 unusable catalog (6
under `cache`), and 5, invalid argument or configuration, for the rest.
The message, not a subclass, names the failure.
"""


class MbzeroError(Exception):
    """Base class for all library errors."""
    exit_code = 5


class ArgumentDomain(MbzeroError):
    """Argument, limit or configuration outside the operation's domain."""


class MissedZeroSuspected(MbzeroError):
    """Scan count disagrees with the counting-formula prediction."""
    exit_code = 2


class NoConvergence(MbzeroError):
    """A numerical method failed: Newton, quadrature, series or ODE step."""
    exit_code = 3


class CatalogError(MbzeroError):
    """Catalog unreadable or empty; too few zeros for statistics exits 5."""
    exit_code = 4


def until_error(fn, items) -> tuple:
    """(values, error): fn of each item in order up to the first that
    raises an MbzeroError, and that error (None if none does).  A batched
    evaluator finishes the items before the error, then raises it, so its
    values and error are those of the serial loop."""
    values = []
    for item in items:
        try:
            values.append(fn(item))
        except MbzeroError as exc:
            return values, exc
    return values, None
