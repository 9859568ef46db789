"""Exact combinatorics of the resonance arrangement.

The arrangement in R^n whose normals are all nonzero 0/1 vectors:
characteristic polynomials by independent methods, Betti numbers
through the broken-circuit complex, Stirling-number closed forms, the
four-element circuit census, and a compiler embedding any rational
matrix's matroid as a minor of a large enough resonance matroid.
"""

from .arrangement import (
    CharPoly,
    count_points_avoiding,
    default_primes,
    enumerate_chambers_bruteforce,
    finite_field_charpoly,
    region_count,
    whitney_charpoly,
)
from .circuits import (
    b3_via_circuits,
    count_intersecting_triples,
    count_rectangle_circuits,
    count_tetrahedron_circuits,
)
from .errors import GuardExceeded, InternalCheckError
from .linalg import EchelonBasis, ExactMatrix
from .masks import format_mask, mask_elements, mask_vector
from .nbc import betti_via_nbc, charpoly_via_nbc, is_broken_circuit, is_nbc
from .prototypes import betti_via_prototypes, coefficients
from .stirling import (
    StirlingCombination,
    betti2_closed,
    betti3_closed,
    betti_closed,
    fit_stirling_coefficients,
    stirling2,
)
from .universality import (
    ColumnDecomposition,
    Embedding,
    decompose_column,
    embed,
    minor_matroid_check,
    parse_matrix_text,
    read_matrix_file,
    verify_embedding,
)

__version__ = "0.1.0"
