"""Numeric tolerances, pinned in one place.

All defects checked by this package are exactly zero in exact arithmetic
(integer eigenvalues, +-1 eigenvectors, algebraic identities between
projections), so the thresholds below leave many orders of magnitude of
headroom over float64 round-off.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    #: spectral residuals and all sampled / twisted polynomial defects
    residual: float = 1e-9
    #: projector identities and witness algebra defects (projection,
    #: row/column sums, commutation with the adjacency matrix)
    projector: float = 1e-10
    #: Fourier round-trip defects
    roundtrip: float = 1e-12
    #: smallest commutator norm reported as a positive noncommutativity
    #: certificate; below this the witness counts as commutative
    certificate_floor: float = 1e-2


DEFAULT_TOLERANCES = Tolerances()
