"""Exception types shared across the package."""


class SubspecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SubspecError):
    """A profile parameter is outside its validity range."""


class NonPositiveSampleError(SubspecError):
    """A tabulated profile contains a sample that is not strictly positive."""


class NegativeArgumentError(SubspecError):
    """An evaluation point x < 0 was passed to a half-line quantity."""


class MissingDecayError(SubspecError):
    """The operation needs decay metadata but the model carries none."""


class ZeroGammaError(SubspecError):
    """The Robin parameter gamma must be nonzero."""


class ComplexGammaError(SubspecError):
    """The Robin parameter gamma must be real."""


class NonSmoothModelError(SubspecError):
    """The operation needs phi'/phi or phi''/phi, which the model does not have."""


class NoDecayDetectedError(SubspecError):
    """phi did not fall below the requested threshold within the search window."""


class IndefiniteDifferenceError(SubspecError):
    """T0 - T is indefinite, so the trace norm of G - G0 is not its trace."""


class NonPositiveMuError(SubspecError):
    """The positive Dirichlet Green matrix came out with an eigenvalue mu <= 0."""


class EigensolveError(SubspecError):
    """The tridiagonal eigensolver reported a failure (LAPACK info != 0)."""


class MismatchedLengthsError(SubspecError):
    """Two spectral results with different lengths cannot be compared."""


class NotCompactError(SubspecError):
    """Dual-route validation is only meaningful when the spectrum is discrete."""


class ConfigError(SubspecError):
    """The CLI configuration file could not be parsed or validated."""
