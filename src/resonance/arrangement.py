"""The resonance arrangement: all 2**n - 1 subset-sum hyperplanes in R^n.

Provides the characteristic polynomial by two independent routes (the
alternating Whitney sum over hyperplane subsets, and point counting
over prime fields followed by interpolation) plus a deletion/restriction
chamber counter that serves as an oracle for the region count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GUARDS, InternalCheckError, check_guard
from .linalg import EchelonBasis, _normalize_int_row, span_coefficients
from .masks import mask_vector

__all__ = [
    "Arrangement",
    "CharPoly",
    "build_arrangement",
    "whitney_charpoly",
    "finite_field_charpoly",
    "count_points_avoiding",
    "default_primes",
    "region_count",
    "enumerate_chambers_bruteforce",
    "MAX_01_DETERMINANT",
]

# Largest determinant of an n x n 0/1 matrix.  Any prime strictly above
# this bound preserves every rank among 0/1 columns when reducing mod p.
MAX_01_DETERMINANT = {1: 1, 2: 1, 3: 2, 4: 3, 5: 5, 6: 9, 7: 32, 8: 56}


@dataclass(frozen=True)
class Arrangement:
    """All nonempty subset masks of [n] in increasing binary order."""

    n: int
    hyperplanes: tuple[int, ...]

    def __len__(self):
        return len(self.hyperplanes)


def build_arrangement(n: int) -> Arrangement:
    if not 1 <= n <= 63:
        raise ValueError(f"n must be in 1..63, got {n}")
    return Arrangement(n, tuple(range(1, 1 << n)))


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial; coeffs[d] is the coefficient of t**d.

    The unsigned coefficients, read from the top degree down, are the
    Betti numbers b_0 .. b_n.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        n = self.degree
        if n < 1:
            raise ValueError("polynomial must have positive degree")
        if self.coeffs[n] != 1:
            raise ValueError("leading coefficient must be 1")
        for i, c in enumerate(self.betti):
            if c < 0:
                raise ValueError(f"coefficient of t^{n - i} has the wrong sign")
        if self.betti[1] != (1 << n) - 1:
            raise ValueError("t^(n-1) coefficient must have absolute value 2^n - 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def betti(self) -> tuple[int, ...]:
        n = self.degree
        return tuple((-1) ** i * self.coeffs[n - i] for i in range(n + 1))

    @classmethod
    def from_betti(cls, betti) -> "CharPoly":
        b = list(betti)
        n = len(b) - 1
        return cls(tuple((-1) ** (n - d) * b[n - d] for d in range(n + 1)))

    def __call__(self, t: int) -> int:
        return sum(c * t**d for d, c in enumerate(self.coeffs))


def region_count(p: CharPoly) -> int:
    """Number of chambers: the sum of the unsigned coefficients."""
    return sum(abs(c) for c in p.coeffs)


def whitney_charpoly(n: int, cap: int | None = GUARDS["whitney_n"]) -> CharPoly:
    """Characteristic polynomial by direct alternating summation over all
    subsets of hyperplanes, weighted by t**(n - rank).

    The sum has 2**(2**n - 1) terms; subsets are walked as a DFS sharing
    echelon bases along common prefixes.
    """
    check_guard("whitney method: n", n, cap)
    arr = build_arrangement(n)
    vectors = [mask_vector(h, n) for h in arr.hyperplanes]
    coeffs = [0] * (n + 1)

    def walk(idx, basis, sign):
        if idx == len(vectors):
            coeffs[n - basis.rank] += sign
            return
        walk(idx + 1, basis, sign)
        child = basis.copy()
        child.add(vectors[idx])
        walk(idx + 1, child, -sign)

    walk(0, EchelonBasis(n), 1)
    return CharPoly(tuple(coeffs))


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def default_primes(n: int, count: int | None = None):
    """The smallest admissible primes for the rank-n arrangement."""
    if n not in MAX_01_DETERMINANT:
        raise ValueError(f"no determinant bound tabulated for n={n}")
    need = count if count is not None else n + 1
    primes = []
    q = MAX_01_DETERMINANT[n] + 1
    while len(primes) < need:
        if _is_prime(q):
            primes.append(q)
        q += 1
    return primes


def _count_rows(table, k, n, q, chunk):
    """Expand a table of surviving subset-sum prefixes one coordinate.

    ``table`` has one row per partial point and one column per subset of
    the fixed coordinates; all nonempty-subset columns are nonzero mod q.
    """
    rows = table.shape[0]
    if rows == 0:
        return 0
    if k == n:
        return rows
    if rows > chunk:
        return sum(
            _count_rows(table[i : i + chunk], k, n, q, chunk) for i in range(0, rows, chunk)
        )
    if k + 1 == n:
        # A value v kills a row iff q - v appears among its entries, so
        # each row admits (q - 1) minus its distinct nonzero entry count.
        srt = np.sort(table, axis=1)
        distinct = (srt[:, 1:] != srt[:, :-1]).sum()
        return rows * (q - 1) - int(distinct)
    total = 0
    for v in range(1, q):  # v = 0 dies on the new singleton subset
        ok = ~(table == q - v).any(axis=1)
        if not ok.any():
            continue
        kept = table[ok]
        shifted = kept + v
        shifted[shifted >= q] -= q
        total += _count_rows(np.hstack((kept, shifted)), k + 1, n, q, chunk)
    return total


def count_points_avoiding(n: int, q: int, threads: int = 1) -> int:
    """Points of F_q^n with every nonempty subset sum nonzero.

    Valid points have x_1 != 0 and scaling by any nonzero constant is a
    bijection on them, so only the x_1 = 1 slice is enumerated and the
    count is multiplied by q - 1.
    """
    if n not in MAX_01_DETERMINANT or q <= MAX_01_DETERMINANT[n]:
        raise ValueError(f"prime {q} too small for n={n}")
    if not _is_prime(q):
        raise ValueError(f"{q} is not prime")
    dtype = np.int8 if 2 * q - 2 <= 127 else np.int16 if 2 * q - 2 <= 32767 else np.int64
    chunk = 1 << 19
    base = np.array([[0, 1]], dtype=dtype)  # sums for the empty set and {1}
    if n == 1:
        return q - 1
    if threads <= 1:
        inner = _count_rows(base, 1, n, q, chunk)
    else:
        # Split on the second coordinate; summing in v-order keeps the
        # result independent of scheduling.
        def job(v):
            shifted = base + v
            shifted[shifted >= q] -= q
            if (shifted == 0).any():
                return 0
            t = np.hstack((base, shifted))
            return _count_rows(t, 2, n, q, chunk) if n > 2 else t.shape[0]

        with ThreadPoolExecutor(max_workers=threads) as pool:
            inner = sum(pool.map(job, range(1, q)))
    return (q - 1) * inner


def _interpolate_integer_poly(points, degree):
    """Exact interpolation: solve the Vandermonde system through the
    echelon kernel; the coefficients must be integers."""
    columns = [[x**d for x, _ in points] for d in range(degree + 1)]
    coeffs = span_coefficients(columns, [y for _, y in points])
    if any(c.denominator != 1 for c in coeffs):
        raise InternalCheckError("interpolated polynomial is not integral")
    return [int(c) for c in coeffs]


def finite_field_charpoly(
    n: int,
    primes=None,
    cap: int | None = GUARDS["finite_field_n"],
    threads: int = 1,
) -> CharPoly:
    """Characteristic polynomial through point counts over n+1 prime fields.

    For admissible primes the count of points avoiding every hyperplane
    equals the polynomial evaluated at q, so n+1 counts determine it.
    """
    check_guard("finite-field method: n", n, cap)
    if n not in MAX_01_DETERMINANT:
        raise ValueError(f"no determinant bound tabulated for n={n}")
    if primes is None:
        primes = default_primes(n)
    primes = sorted(set(primes))
    if len(primes) < n + 1:
        raise ValueError(f"need at least {n + 1} distinct primes, got {len(primes)}")
    bound = MAX_01_DETERMINANT[n]
    for q in primes:
        if not _is_prime(q):
            raise ValueError(f"{q} is not prime")
        if q <= bound:
            raise ValueError(f"prime {q} must exceed {bound} for n={n}")
    pts = [(q, count_points_avoiding(n, q, threads=threads)) for q in primes[: n + 1]]
    return CharPoly(tuple(_interpolate_integer_poly(pts, n)))


@lru_cache(maxsize=None)
def _count_regions(normals: tuple, dim: int) -> int:
    """Deletion/restriction recursion on the region count.

    Removing one hyperplane and adding back the regions it cuts (one per
    region of the arrangement induced on it) counts every chamber once.
    """
    if not normals:
        return 1
    h, rest = normals[0], normals[1:]
    on_h = EchelonBasis(dim)
    on_h.add(h)
    p = next(j for j, x in enumerate(h) if x)
    induced = set()
    for v in rest:
        # Coordinates on h: eliminate the pivot p of h from v, then drop it.
        w = on_h.residual(v)
        w = _normalize_int_row(w[:p] + w[p + 1 :])
        if w is not None:
            induced.add(w)
    return _count_regions(rest, dim) + _count_regions(tuple(sorted(induced)), dim - 1)


def enumerate_chambers_bruteforce(n: int, cap: int | None = GUARDS["chambers_n"]) -> int:
    """Chamber count by recursive region splitting; oracle for region_count."""
    check_guard("chamber enumeration: n", n, cap)
    arr = build_arrangement(n)
    normals = tuple(mask_vector(h, n) for h in arr.hyperplanes)
    return _count_regions(normals, n)
