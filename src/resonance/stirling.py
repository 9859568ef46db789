"""Stirling numbers of the second kind and the package's closed formulas.

``CLOSED_FORMS`` holds every closed formula (b_1, b_2, b_3 and the three
circuit counts) as one row.  ``closed_form`` evaluates a row through two
independent expressions (the Stirling combination and the exponential
sum) and compares them; a mismatch raises InternalCheckError since it
can only come from an arithmetic bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from operator import index

from .errors import InternalCheckError
from .linalg import integer_coefficients


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """S(n, k): partitions of n labeled objects into k nonempty blocks.

    Runs S(m, j) = j * S(m - 1, j) + S(m - 1, j - 1) row by row for
    m = 1 .. n, keeping columns j <= k, so large n needs no deep stack.
    """
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


@dataclass(frozen=True)
class StirlingCombination:
    """Coefficients c_k with b_i(A_n) = sum_k c_k * S(n+1, k).

    Only k in i+1 .. 2**i can occur; all coefficients are nonnegative
    integers bounded by C(2**i - 1, k-1) * (k-1)! / i!.
    """

    index: int
    coefficients: dict[int, int]

    def __post_init__(self):
        i = self.index
        for k, c in self.coefficients.items():
            if not i + 1 <= k <= 2**i:
                raise ValueError(f"coefficient index k={k} outside {i+1}..{2**i}")
            if c < 0:
                raise ValueError(f"negative coefficient c[{k}]={c}")
            if c * factorial(i) > comb(2**i - 1, k - 1) * factorial(k - 1):
                raise ValueError(f"coefficient c[{k}]={c} exceeds its combinatorial bound")

    def evaluate(self, n: int) -> int:
        return sum(c * stirling2(n + 1, k) for k, c in self.coefficients.items())


# Each closed formula of the package as a row: its Stirling coefficients
# {k: c}, its power-sum coefficients {b: c} and a divisor d, so that
#     value(n) = sum c * S(n+1, k) = (sum c * b**n) / d.
# The b_i rows are sum_k c_{i,k} S(n+1, k); the three circuit counts give
# b_3 = triples - tetrahedra - rectangles, coefficient by coefficient.
# Each circuit row is named by its ``circuits-census`` JSON key.
CLOSED_FORMS = {
    "betti1": ({2: 1}, {2: 1, 1: -1}, 1),
    "betti2": ({3: 2, 4: 3}, {4: 1, 3: -1, 2: -1, 1: 1}, 2),
    "betti3": ({4: 9, 5: 80, 6: 345, 7: 840, 8: 840},
               {8: 4, 6: -15, 5: 15, 4: -14, 3: 18, 2: -7, 1: -1}, 24),
    "intersecting_triples": ({4: 13, 5: 92, 6: 360, 7: 840, 8: 840},
                             {8: 1, 6: -3, 5: 3, 4: -4, 3: 3, 2: 2, 1: -2}, 6),
    "tetrahedron_circuits": ({4: 1}, {4: 1, 3: -3, 2: 3, 1: -1}, 6),
    "rectangle_circuits": ({4: 3, 5: 12, 6: 15}, {6: 1, 5: -1, 4: -2, 3: 2, 2: 1, 1: -1}, 8),
}
# The Betti indices i that have a ``betti{i}`` row, ascending.
CLOSED_BETTI = tuple(sorted(int(name[5:]) for name in CLOSED_FORMS if name.startswith("betti")))


def closed_form(name: str, n: int) -> int:
    """Row ``name`` of ``CLOSED_FORMS`` at n, by both of its expressions."""
    if n < 1:
        raise ValueError("n must be positive")
    stirling, powers, divisor = CLOSED_FORMS[name]
    via_stirling = sum(c * stirling2(n + 1, k) for k, c in stirling.items())
    via_powers, rem = divmod(sum(c * b**n for b, c in powers.items()), divisor)
    if rem or via_stirling != via_powers:
        raise InternalCheckError(
            f"{name} expressions disagree at n={n}: {via_stirling} vs {via_powers}"
        )
    return via_stirling


def betti2_closed(n: int) -> int:
    """Second Betti number of the rank-n resonance arrangement."""
    return closed_form("betti2", n)


def betti3_closed(n: int) -> int:
    """Third Betti number of the rank-n resonance arrangement."""
    return closed_form("betti3", n)


def betti_closed(i: int, n: int) -> int:
    """b_i(A_n) in closed form, for i in ``CLOSED_BETTI``."""
    i = index(i)  # True is 1 and names row betti1; 3.0 raises TypeError
    if i not in CLOSED_BETTI:
        raise ValueError(f"closed forms exist for i in {{{', '.join(map(str, CLOSED_BETTI))}}}")
    return closed_form(f"betti{i}", n)


def fit_stirling_coefficients(i: int, values) -> StirlingCombination:
    """Recover the Stirling combination from b_i(A_1) .. b_i(A_{2**i}).

    Expresses the values over the columns of the invertible Stirling
    matrix in integers; ``StirlingCombination`` then checks that the
    solution has the shape the theory demands: zero for k <= i, and
    nonnegative and within the combinatorial bound for k > i.
    """
    if i < 0:
        raise ValueError(f"Betti index i must be nonnegative, got i={i}")
    vals = list(values)
    size = 2**i
    if len(vals) != size:
        raise ValueError(f"need exactly {size} Betti values, got {len(vals)}")
    columns = [[stirling2(n + 1, k) for n in range(1, size + 1)] for k in range(1, size + 1)]
    solution = integer_coefficients(columns, vals)
    if solution is None:
        raise ValueError("inconsistent inputs: no integer Stirling combination fits them")
    return StirlingCombination(i, {k: c for k, c in enumerate(solution, start=1) if c})
