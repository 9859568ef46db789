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
each prototype only on the all-singletons partition of [k], where row j
is the mask of positions whose image contains j.  A prototype whose rows
collide or come out empty never encodes a tuple of i distinct nonempty
subsets, so it is broken.

A prototype is an ordering of its image set P, a (k-1)-subset of the
patterns 1 .. 2^i - 1, and only the binary order of its rows depends on
that ordering.  Indexed by the patterns of P instead of by positions,
row j is the 0/1 vector of the patterns holding bit j, so whether the
rows are nonzero and distinct depends on P alone, and so do the linear
relations among them: for rows J (|J| >= 2), the 0/1 points of their
span whose coefficients over them are all nonzero (none when they are
dependent) are the hyperplanes that close J to a circuit.  The rows of J
form a broken circuit exactly when one of these points exceeds every
row of J as an integer, the one test in which the ordering enters.  The
census therefore solves each (P, J) once (``linalg._closing_points``)
and judges all (k-1)! orderings of P in one pass over an array of
position weights, one row per ordering.

Every prototype is still counted one by one, and relabelling the i rows
(S_i acting on [i]) maps P to another image set with its own solves, so
the division by i! checks the count rather than restating it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, permutations
from math import factorial

import numpy as np

from .errors import InternalCheckError
from .linalg import _closing_points
from .stirling import CLOSED_FORMS, StirlingCombination

# Largest Betti index of the census: it holds the (2^i - 1)! orderings of
# one image set at once, 5040 at i = 3 and 1.3e12 at i = 4.
_MAX_I = 3


def _position_weights(m: int):
    """One int16 row per ordering of m patterns: entry t is 2^(position of
    pattern t), so a set of patterns has the integer value of the row's
    entries at those patterns summed."""
    weights = [1 << pos for pos in range(m)]
    flat = chain.from_iterable(permutations(weights))
    return np.fromiter(flat, np.int16, factorial(m) * m).reshape(-1, m)


@lru_cache(maxsize=None)
def _functional_counts(i: int) -> tuple[tuple[int, int], ...]:
    """(k, number of functional (i, k)-prototypes) for k = i+1 .. 2^i."""
    subsets = [J for size in range(2, i + 1) for J in combinations(range(i), size)]
    counts = []
    for k in range(i + 1, 2**i + 1):
        weights = _position_weights(k - 1)
        functional = 0
        for images in combinations(range(1, 2**i), k - 1):
            rows = [tuple(image >> j & 1 for image in images) for j in range(i)]
            if not all(map(any, rows)) or len(set(rows)) != i:
                continue
            values = [weights.compress(row, 1).sum(1) for row in rows]
            broken = np.zeros(len(weights), bool)
            for J in subsets:
                top = np.maximum.reduce([values[j] for j in J])
                for point in _closing_points([rows[j] for j in J]):
                    broken |= weights.compress(point, 1).sum(1) > top
            functional += len(weights) - int(np.count_nonzero(broken))
        counts.append((k, functional))
    return tuple(counts)


def coefficients(i: int) -> StirlingCombination:
    """The Stirling coefficients for Betti index i by full prototype census,
    compared with the row ``betti{i}`` of ``CLOSED_FORMS`` where there is one."""
    if i < 1:
        raise ValueError(f"Betti index i must be positive, got i={i}")
    if i > _MAX_I:
        raise ValueError(f"the prototype census runs to i = {_MAX_I}, got i={i}: "
                         f"it would hold all {2**i - 1}! orderings of an image set at once")
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


def betti_via_prototypes(i: int, n: int) -> int:
    """b_i(A_n) assembled from the prototype census."""
    if n < 1:
        raise ValueError("n must be positive")
    return coefficients(i).evaluate(n)
