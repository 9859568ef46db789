"""Stirling numbers of the second kind and the closed Betti formulas.

Each closed form is evaluated through two independent expressions (the
Stirling combination and the exponential sum) and the results are
compared; a mismatch raises InternalCheckError since it can only come
from an arithmetic bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

from .errors import InternalCheckError
from .linalg import _span_solver

__all__ = [
    "stirling2",
    "stirling2_altsum",
    "StirlingCombination",
    "betti2_closed",
    "betti3_closed",
    "fit_stirling_coefficients",
    "betti_upper_bound",
    "betti_bound_holds",
    "region_log2_bound",
]


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """S(n, k): partitions of n labeled objects into k nonempty blocks."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def stirling2_altsum(n: int, k: int) -> int:
    """S(n, k) via the alternating binomial sum; exact integer division."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    if k == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1))
    q, r = divmod(total, factorial(k))
    if r:
        raise InternalCheckError(f"alternating sum for S({n},{k}) not divisible by {k}!")
    return q


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


def betti2_closed(n: int) -> int:
    """Second Betti number of the rank-n resonance arrangement."""
    if n < 1:
        raise ValueError("n must be positive")
    via_stirling = 2 * stirling2(n + 1, 3) + 3 * stirling2(n + 1, 4)
    via_powers, rem = divmod(4**n - 3**n - 2**n + 1, 2)
    if rem or via_stirling != via_powers:
        raise InternalCheckError(
            f"betti2 expressions disagree at n={n}: {via_stirling} vs {via_powers}"
        )
    return via_stirling


def betti3_closed(n: int) -> int:
    """Third Betti number of the rank-n resonance arrangement."""
    if n < 1:
        raise ValueError("n must be positive")
    via_stirling = (
        9 * stirling2(n + 1, 4)
        + 80 * stirling2(n + 1, 5)
        + 345 * stirling2(n + 1, 6)
        + 840 * stirling2(n + 1, 7)
        + 840 * stirling2(n + 1, 8)
    )
    num = 4 * 8**n - 15 * 6**n + 15 * 5**n - 14 * 4**n + 18 * 3**n - 7 * 2**n - 1
    via_powers, rem = divmod(num, 24)
    if rem or via_stirling != via_powers:
        raise InternalCheckError(
            f"betti3 expressions disagree at n={n}: {via_stirling} vs {via_powers}"
        )
    return via_stirling


def fit_stirling_coefficients(i: int, values) -> StirlingCombination:
    """Recover the Stirling combination from b_i(A_1) .. b_i(A_{2**i}).

    Expresses the values over the columns of the (invertible) Stirling
    matrix and checks the solution has the shape the theory demands:
    zero for k <= i, nonnegative integers above.
    """
    if i < 0:
        raise ValueError(f"Betti index i must be nonnegative, got i={i}")
    vals = list(values)
    size = 2**i
    if len(vals) != size:
        raise ValueError(f"need exactly {size} Betti values, got {len(vals)}")
    columns = [[stirling2(n + 1, k) for n in range(1, size + 1)] for k in range(1, size + 1)]
    rank, solve = _span_solver(columns)
    if rank < size:
        raise ValueError("Stirling matrix is singular")
    solution = solve(vals)
    coeffs = {}
    for k, c in enumerate(solution, start=1):
        if c.denominator != 1 or c < 0:
            raise ValueError(f"inconsistent inputs: c[{k}] = {c} is not a nonnegative integer")
        c = int(c)
        if k <= i:
            if c != 0:
                raise ValueError(f"inconsistent inputs: c[{k}] = {c} should vanish for k <= {i}")
        elif c:
            coeffs[k] = c
    return StirlingCombination(i, coeffs)


def betti_upper_bound(i: int, n: int) -> int:
    """floor(2**(i*n) / i!), the strict upper bound value for b_i(A_n)."""
    if i < 0 or n < 1:
        raise ValueError("need i >= 0 and n >= 1")
    return 2 ** (i * n) // factorial(i)


def betti_bound_holds(i: int, n: int, betti_value: int) -> bool:
    """Exact check of b_i(A_n) < 2**(i*n) / i! (no floor rounding)."""
    return betti_value * factorial(i) < 2 ** (i * n)


def region_log2_bound(n: int) -> tuple[int, bool]:
    """The exponent n**2 - n + 1 and whether the summed Betti bounds
    stay below 2 to that exponent.

    The summed form is looser than the bound on the chamber count
    itself and genuinely fails at n = 2 (13 > 8) even though
    log2(R_2) < 3 holds; callers comparing chamber counts should test
    R_n < 2**exponent directly.
    """
    if n <= 1:
        raise ValueError("n must be at least 2")
    exponent = n * n - n + 1
    total = sum(betti_upper_bound(i, n) for i in range(n + 1))
    return exponent, total < 2**exponent
