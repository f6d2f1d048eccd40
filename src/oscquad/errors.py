"""Exception taxonomy shared across the package.

The benchmark CLI maps these onto process exit codes, so the distinctions
matter: bad user input, a method asked to do something outside its domain,
and a computation that ran but cannot vouch for its own accuracy are
different failure modes.
"""


class OscquadError(Exception):
    """Base class for all package errors."""


class ParameterError(OscquadError, ValueError):
    """Invalid argument values (bad alpha, empty sweep list, ...)."""


class InvalidOscillatorError(ParameterError):
    """Oscillator fails the monotonicity / normalization requirements."""


class CapabilityError(OscquadError):
    """A well-formed request outside the method's supported domain."""


class AccuracyError(OscquadError):
    """A computation finished but its accuracy cannot be trusted."""


class DegenerateSystemError(AccuracyError):
    """A collocation system cannot be solved: all its singular values fell
    below threshold, or its factorisation (SVD or LU solve) failed with
    ``numpy.linalg.LinAlgError``."""
