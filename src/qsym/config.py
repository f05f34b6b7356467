"""Numeric tolerances and the one report type, pinned in one place.

All defects checked by this package are exactly zero in exact arithmetic
(integer eigenvalues, +-1 eigenvectors, algebraic identities between
projections), so the thresholds below leave many orders of magnitude of
headroom over float64 round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, isfinite
from numbers import Integral, Real

from .errors import UsageError


@dataclass(frozen=True)
class Tolerances:
    #: spectral residuals and all sampled / twisted polynomial defects
    residual: float = 1e-9
    #: projector identities and witness algebra defects (projection,
    #: row/column sums, commutation with the adjacency matrix)
    projector: float = 1e-10
    #: smallest commutator norm reported as a positive noncommutativity
    #: certificate; below this the witness counts as commutative
    certificate_floor: float = 1e-2


DEFAULT_TOLERANCES = Tolerances()


class Report:
    """The read-only result of one check: named values, kept in the order
    given.  ``passed`` is the verdict; the others are defects and the
    parameters of the check.  Two reports are equal when their values are.
    """

    def __init__(self, **values):
        self.__dict__.update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Report is read-only, cannot set {name!r}")

    def __eq__(self, other):
        return isinstance(other, Report) and vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"Report({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def to_json(self) -> dict:
        """The values in order, ``passed`` as "pass" and tuples as lists."""
        return {"pass" if key == "passed" else key: list(value) if isinstance(value, tuple) else value
                for key, value in vars(self).items()}


def check_tolerance(tol, name: str = "tol"):
    """Return tol unchanged if it is a usable pass/fail threshold, and a
    negative zero as 0.0, so that no report prints a tolerance of -0.0.

    A NaN threshold would pass every ``defect <= tol`` test as False, a
    negative one would fail exact results and an infinite one, or one past
    the float range, would pass any defect, so all of them are usage
    errors, as are bools and non-numbers.
    """
    try:
        usable = not isinstance(tol, bool) and isinstance(tol, Real) and isfinite(tol) and tol >= 0
    except OverflowError:  # an integer past the float range
        usable = False
    if not usable:
        raise UsageError(f"{name} must be a non-negative number, got {tol!r}")
    return 0.0 if tol == 0 and copysign(1, tol) < 0 else tol


def check_integer(value, name: str, minimum: int = 0, *, odd: bool = False, need: str | None = None) -> int:
    """Return value as an int if it is an integer of at least ``minimum``,
    and odd if ``odd`` is set.

    Sizes, sample counts and seeds are counts: a bool would pass as 0 or 1
    and a float would fail deep inside numpy, so both are usage errors, as
    are values below the minimum.  ``need`` replaces the start of the
    error message.
    """
    if (isinstance(value, bool) or not isinstance(value, Integral) or value < minimum
            or (odd and value % 2 == 0)):
        need = need or f"{name} must be an {'odd ' if odd else ''}integer >= {minimum}"
        raise UsageError(f"{need}, got {value!r}")
    return int(value)
