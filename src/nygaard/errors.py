"""The errors of the workbench, by what the command line does with them.

UsageError: the parameters or input are bad (exit code 1).
NotCertified: a computation ran but could not certify its answer (exit code
2); its subclasses say which certificate failed.
"""


class UsageError(Exception):
    """Bad parameters or input from outside the program."""


class NotCertified(Exception):
    """A computation could not certify its answer."""


class NotStabilized(NotCertified):
    """A directed system or truncation did not stabilize within its budget;
    `degrees` lists the cohomological degrees that did not, where known."""

    def __init__(self, message, degrees=()):
        super().__init__(message)
        self.degrees = list(degrees)


class PrecisionExhausted(NotCertified):
    """The internal precision a computation needs exceeds its cap."""


class BoundViolated(NotCertified):
    """A proven bound or series termination failed on the computed data."""


class CompositeNonzero(NotCertified):
    """A claimed subcomplex does not close up: consecutive differentials do
    not compose to zero, or relation rows leave the span they must lie in."""


class TruncationTooTight(NotCertified):
    """A product or Frobenius image that does not vanish leaves the weight
    window of a truncated model."""


class NotNonzerodivisor(UsageError):
    """The element given to the decalage eta_f is not a nonzerodivisor."""


class WindowTooSmall(UsageError):
    """A filtration declares no extension pattern above its index window, so
    the requested piece depends on indices it does not describe."""


class LengthMismatch(UsageError):
    """Witt vectors of different lengths were combined."""


class RingError(NotCertified):
    """A ring operation needs an exact division, or a perfection depth, that
    the element at hand does not allow."""
