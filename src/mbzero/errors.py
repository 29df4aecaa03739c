"""Exception types shared across the library.

Every failure mode named in an operation contract gets its own class,
and each class carries the CLI exit code it maps to: 2 suspected missed
zero, 3 numerical failure, 4 unusable catalog (6 under `cache`), and the
base class's 5, invalid configuration, for the rest.
"""


class MbzeroError(Exception):
    """Base class for all library errors."""
    exit_code = 5


class NonFiniteInput(MbzeroError):
    """An argument carried a NaN or infinity."""


class PoleProximity(MbzeroError):
    """Evaluation point too close to a pole of the target function."""


class BranchJump(MbzeroError):
    """A tracked-argument path step would move arg by >= pi."""
    exit_code = 3


class LimitTooLarge(MbzeroError):
    """Requested table or sum limit exceeds the configured ceiling."""


class ArgumentDomain(MbzeroError):
    """Argument outside the operation's domain (e.g. x <= 0)."""


class QuadratureNonConvergence(MbzeroError):
    """Interval-halving failed to shrink the quadrature error estimate."""
    exit_code = 3


class SeriesOverflow(MbzeroError):
    """Power-series mode requested outside its safe argument range."""


class ContourOnPole(MbzeroError):
    """Contour abscissa sits within the safety margin of a pole ladder."""


class TailBoundViolated(MbzeroError):
    """Contour truncation height too small for the requested tolerance."""
    exit_code = 3


class PoleInStrip(MbzeroError):
    """A pole ladder crosses the strip between two contour abscissae."""

    def __init__(self, message, pole=None):
        super().__init__(message)
        self.pole = pole


class NoConvergence(MbzeroError):
    """Iteration (Newton, ladder extrapolation) failed to converge."""
    exit_code = 3


class BasinEscape(MbzeroError):
    """Newton iterate left the trust interval around the initial guess."""
    exit_code = 3


class MissedZeroSuspected(MbzeroError):
    """Scan count disagrees with the counting-formula prediction."""
    exit_code = 2


class IncompleteCatalog(MbzeroError):
    """Operation needs more catalog zeros than are available."""
    exit_code = 4


class WindowTooSparse(MbzeroError):
    """Statistics window holds too few zeros for the estimator."""


class ChecksumMismatch(MbzeroError):
    """Catalog file failed its trailing-checksum verification."""
    exit_code = 4


class VersionUnsupported(MbzeroError):
    """Catalog file declares a format version this build does not read."""
    exit_code = 4


class SeriesDivergent(MbzeroError):
    """Series parameters outside the convergence disk."""
    exit_code = 3


class StepUnderflow(MbzeroError):
    """Adaptive ODE step shrank below the hardware floor."""
    exit_code = 3


class ConfigError(MbzeroError):
    """CLI configuration failed validation before any computation."""
