"""Prototype census behind the Stirling-combination Betti formulas.

An (i, k)-prototype is an injective map from {1..k-1} to nonempty
subsets of {1..i}.  Together with a partition of {1..n+1} into k blocks
(the block holding n+1 last) it realizes an i-tuple of hyperplane
subsets of [n]: the j-th set is the union of the blocks at the positions
whose image contains j.  Whether that tuple contains a broken circuit
depends on the prototype alone, so counting "functional" prototypes per
k and dividing by i! yields the coefficients c_{i,k} with

    b_i = sum_k c_{i,k} * S(n+1, k).

By that partition independence (a tested property) the census realizes
each prototype only on the all-singletons partition of [k], where the
j-th set is the mask of positions whose image contains j.  A prototype
whose sets collide or come out empty never encodes a tuple of i
distinct nonempty subsets, so it is broken.

Relabelling the i sets (S_i acting on [i]) permutes the tuple a
prototype encodes and nothing else, and ``is_nbc`` depends only on the
set of masks, so every prototype of one S_i-orbit has the same verdict.
The census therefore calls ``is_nbc`` once per orbit, keyed by the
sorted tuple, but still adds one to the count for every functional
prototype: the division by i! checks the full count, not an orbit count
scaled by i!.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial

from .errors import GUARDS, InternalCheckError, check_guard
from .nbc import is_nbc
from .stirling import CLOSED_FORMS, StirlingCombination


@lru_cache(maxsize=None)
def _functional_counts(i: int) -> tuple[tuple[int, int], ...]:
    """(k, number of functional (i, k)-prototypes) for k = i+1 .. 2^i."""
    counts = []
    for k in range(i + 1, 2**i + 1):
        functional = 0
        verdicts = {}
        for images in permutations(range(1, 2**i), k - 1):
            sets = tuple(
                sum(1 << pos for pos, image in enumerate(images) if image >> j & 1)
                for j in range(i)
            )
            if 0 in sets or len(set(sets)) != i:
                continue
            key = tuple(sorted(sets))
            if key not in verdicts:
                verdicts[key] = is_nbc(key, k - 1)
            functional += verdicts[key]
        counts.append((k, functional))
    return tuple(counts)


def coefficients(i: int, cap: int | None = GUARDS["prototype_i"]) -> StirlingCombination:
    """The Stirling coefficients for Betti index i by full prototype census,
    compared with the row ``betti{i}`` of ``CLOSED_FORMS`` where there is one."""
    if i < 1:
        raise ValueError(f"Betti index i must be positive, got i={i}")
    check_guard("coefficient census: i", i, cap)
    coeffs = {}
    for k, functional in _functional_counts(i):
        q, r = divmod(functional, factorial(i))
        if r:
            raise InternalCheckError(
                f"functional count {functional} for (i={i}, k={k}) not divisible by {i}!"
            )
        if q:
            coeffs[k] = q
    row = CLOSED_FORMS.get(f"betti{i}")
    if row and coeffs != row[0]:
        raise InternalCheckError(
            f"prototype census gives c_{i} = {coeffs}, the closed form b_{i} has {row[0]}"
        )
    return StirlingCombination(i, coeffs)


def betti_via_prototypes(i: int, n: int, cap: int | None = GUARDS["prototype_i"]) -> int:
    """b_i(A_n) assembled from the prototype census."""
    if n < 1:
        raise ValueError("n must be positive")
    return coefficients(i, cap=cap).evaluate(n)
