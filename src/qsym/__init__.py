"""qsym: desk-scale certification of quantum symmetries of folded cube graphs.

The package bundles five cooperating toolkits:

* ``graphs``        -- simple graphs, automorphism enumeration, disjoint pairs
* ``boolean_group`` -- Z_2^w as integer words, the Walsh-Hadamard matrix,
                       folded cubes and the tau generators
* ``spectral``      -- closed-form folded-cube spectra and eigenprojections,
                       from one vectorized eigenvalue rule
* ``star_algebra``  -- magic-unitary witnesses over a matrix model
* ``so_twist``      -- the q = -1 orthogonal relation system, its bicharacter
                       twist (an int8 sign table), and the classical points
                       acting on folded cubes

plus a JSON-reporting CLI (``qsym``).  Every check returns one
``config.Report``.  The names exported here are what the CLI, the
benchmark and the library's own code paths call.
"""

from .config import DEFAULT_TOLERANCES, Report, Tolerances
from .errors import (
    CapacityError,
    DimensionError,
    GraphFormatError,
    QsymError,
    UsageError,
)
from .graphs import (
    Graph,
    Permutation,
    are_disjoint,
    automorphisms,
    find_disjoint_pair,
    is_automorphism,
)
from .boolean_group import (
    folded_cube,
    tau_generators,
    walsh_matrix,
)
from .spectral import (
    eigenprojections,
    preserves_eigenspaces,
    verify_spectrum,
)
from .star_algebra import (
    MagicUnitary,
    build_witness,
    certify_witness,
    op_norm,
    recovery_products,
    rep_free_product,
)
from .so_twist import (
    SignedPermMatrix,
    abelian_points,
    bicharacter,
    chain_sign,
    chain_signs,
    classical_point_action,
    lemma_P_check,
    lemma_SO_bruteforce,
    lemma_SO_mismatches,
    lemma_sumzero_check,
    twisted_relation_check,
)

__version__ = "0.1.0"
