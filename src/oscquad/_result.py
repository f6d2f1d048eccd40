"""Result container shared by the quadrature front-ends."""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral

from .errors import AccuracyError, ParameterError

__all__ = ["Method", "QuadratureResult", "check_counts"]


class Method(Enum):
    """Quadrature routes exposed by the package.

    The frequency-space collocation route covers both the Chebyshev-basis
    Levin solve and the moment-based Filon solve; they are tagged
    separately so benchmark output can distinguish them.
    """

    LEVIN_PHYSICAL = "levin-physical"
    LEVIN_FREQ = "levin-freq"
    FILON = "filon"
    CMFP = "cmfp"
    ORACLE = "oracle"


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with solver diagnostics.

    ``diagnostics`` is a flat mapping of solver-specific scalars (residual
    norms, truncation counts, kernel strategies) suitable for JSON output.
    A non-finite value is a computation that cannot vouch for its result, so
    it raises AccuracyError.
    """

    value: complex
    method: Method
    s: int
    n: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not cmath.isfinite(self.value):
            raise AccuracyError("quadrature value must be finite")


def check_counts(**counts) -> None:
    """Refuse a node count or order that is not an integer (bool included),
    naming the parameter and the value passed."""
    for name, value in counts.items():
        # An exact int passes without the Integral ABC check, which costs
        # about a microsecond per value.
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
