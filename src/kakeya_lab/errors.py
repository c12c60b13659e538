"""Exception types shared across the lab."""

from contextlib import contextmanager


class KakeyaLabError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(KakeyaLabError):
    """Inversion was requested for a matrix with zero determinant."""


class HeightOutOfSupport(KakeyaLabError):
    """A height parameter fell outside the supported interval [-1, 1]."""


class IdenticalCurves(KakeyaLabError):
    """Two curves with identical parameters were passed where distinct ones are required."""


class SingularConfiguration(KakeyaLabError):
    """A parameter choice made a required matrix inverse or denominator vanish."""


class ConfigurationViolation(KakeyaLabError):
    """Inputs violate the dyadic / normalization preconditions of a geometric check."""


class NoSolution(KakeyaLabError):
    """A height solver found no admissible solution.

    The ``reason`` attribute carries a short machine-readable code, e.g.
    ``"nilpotent_M"`` or ``"real_spectrum_blocked"``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class NotCompanionForm(KakeyaLabError):
    """A matrix expected in companion-block form failed structure validation."""


class DegenerateInstance(KakeyaLabError):
    """An incidence instance is internally inconsistent (signals corrupted data)."""


class PreconditionViolation(KakeyaLabError, ValueError):
    """Operation inputs violate a documented precondition; also a ValueError, as a bad input value is one."""


class NoSuchVector(KakeyaLabError):
    """No admissible basis vector exists (matrix is a multiple of the identity)."""


class ResolutionTooFine(KakeyaLabError):
    """A grid request exceeded the cell budget."""


@contextmanager
def reading_json(what: str):
    """Raise :class:`PreconditionViolation` for a missing key, a wrongly typed
    value or a number past the float range met while reading ``what`` from parsed JSON."""
    try:
        yield
    except KeyError as e:
        raise PreconditionViolation(f"{what} JSON has no key {e}") from e
    except TypeError as e:
        raise PreconditionViolation(f"{what} JSON holds a value of the wrong type: {e}") from e
    except OverflowError as e:
        raise PreconditionViolation(f"{what} JSON holds a number past the float range: {e}") from e
