"""Exception hierarchy for the feedback-control simulator.

Every error raised by this package derives from :class:`QFeedbackError`.
Below it, :class:`InputError` marks a bad scenario, model or argument (CLI
exit code 1) and :class:`NumericalError` a computation that failed on valid
input (exit code 2); :class:`IoError` (exit code 3) stands apart.
"""


class QFeedbackError(Exception):
    """Base class for all package errors."""


class InputError(QFeedbackError):
    """The caller's input is invalid; the CLI exits with code 1."""


class NumericalError(QFeedbackError):
    """A computation on valid input failed; the CLI exits with code 2."""


class NotHermitianError(InputError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class NoConvergenceError(NumericalError):
    """The LAPACK eigensolver did not converge."""


class DomainError(NumericalError):
    """A value left the range where the computation is defined: a scalar
    function at an eigenvalue of its matrix argument, or a result that
    overflowed to a non-finite number."""


class DimensionMismatchError(InputError):
    """Operands have incompatible dimensions."""


class NonPositiveTemperatureError(InputError):
    """Thermal construction requires T > 0."""


class ArgumentRangeError(InputError, ValueError):
    """An argument lies outside its allowed values (a step count below 1, a
    readout strength out of range, a controller index outside 0…N-1, a ledger
    format other than csv or json).  Also a ``ValueError``, as Python code
    expects of a bad argument value."""


class InvalidStateError(NumericalError):
    """Matrix is not a valid density matrix (Hermitian, unit trace, PSD)."""


class NotADistributionError(InputError):
    """Vector is not a probability distribution within tolerance."""


class InvalidModelError(InputError):
    """Measurement model fails completeness or positivity requirements."""


class IncompleteModelError(InvalidModelError):
    """Operator family does not resolve the identity, so it cannot be dilated."""


class DegenerateStateError(NumericalError):
    """Every outcome probability sits below its floor."""


class PlanMismatchError(NumericalError):
    """Executing a feedback plan did not land on the promised thermal state."""


class NonUnitaryBlockError(NumericalError):
    """A controlled-unitary block is not unitary within tolerance."""


class UnknownParameterError(InputError):
    """Sweep parameter path does not name a numeric config field."""


class ConfigError(InputError):
    """Problem with a scenario config; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class ParseError(ConfigError):
    """Config text could not be parsed at all."""


class ValidationError(ConfigError):
    """Config parsed but a field failed validation."""


class IoError(QFeedbackError):
    """Reading or writing a ledger/report destination failed."""
