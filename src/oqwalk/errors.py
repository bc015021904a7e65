"""Exception taxonomy for the oqwalk package.

Each class carries the CLI's process exit code for it as ``exit_code``; the
table of codes is in ``oqwalk.cli``.
"""


class OQWalkError(Exception):
    """Base class for every error raised by this package."""
    exit_code = 1


class ModelFormatError(OQWalkError):
    """A model/state document cannot be parsed or is missing/mistyping fields.

    Carries enough context (line or field path) to locate the offending spot.
    """
    exit_code = 2


class ModelValidationError(OQWalkError):
    """A parsed model violates a validity requirement (stochasticity, PSD, ...)."""
    exit_code = 3


class AssumptionError(OQWalkError):
    """An operation's structural precondition does not hold (wrong dim, H1/H2, ...)."""
    exit_code = 3


class HermiticityError(OQWalkError):
    """Input expected to be Hermitian deviates beyond tolerance."""
    exit_code = 4


class TraceGaugeError(OQWalkError):
    """A trace constraint on an input or output is violated."""
    exit_code = 4


class SingularRestrictionError(OQWalkError):
    """A linear solve's restricted operator is numerically singular."""
    exit_code = 4


class SpectralIndeterminateError(OQWalkError):
    """A spectral decision sits too close to its tolerance boundary to call."""
    exit_code = 4


class PositivityError(OQWalkError):
    """An object that must be positive semidefinite fails beyond repairable noise."""
    exit_code = 4


class MultiplicityError(OQWalkError):
    """A fixed point assumed simple has higher multiplicity."""
    exit_code = 5


class ConvergenceError(OQWalkError):
    """An iterative procedure exhausted its budget without stabilizing."""
    exit_code = 4


class DegenerateStepError(OQWalkError):
    """All step probabilities vanished along a trajectory (absorbing numerical trap)."""
    exit_code = 6


class TraceDriftError(OQWalkError):
    """A trajectory state's trace drifted beyond the renormalization guard."""
    exit_code = 6


class StandardizationError(OQWalkError):
    """Batch standardization impossible (displacement outside the covariance support)."""
    exit_code = 6
