"""The resonance arrangement: all 2**n - 1 subset-sum hyperplanes in R^n.

Provides the characteristic polynomial by two independent routes: a
deletion/restriction recursion on Betti numbers, whose sum is also the
chamber count, and point counting over prime fields followed by
interpolation.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb
from operator import add

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GUARDS, InternalCheckError, check_guard
from .linalg import restrict, span_coefficients
from .masks import mask_vector

# Largest determinant of an n x n 0/1 matrix.  Any prime strictly above
# this bound preserves every rank among 0/1 columns when reducing mod p.
MAX_01_DETERMINANT = {1: 1, 2: 1, 3: 2, 4: 3, 5: 5, 6: 9, 7: 32, 8: 56}


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial; coeffs[d] is the coefficient of t**d.

    The unsigned coefficients, read from the top degree down, are the
    Betti numbers b_0 .. b_n.  Every instance is some route's chi(A_n),
    so a failed check is an internal error, not bad input.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        n = self.degree
        if n < 1:
            raise InternalCheckError("polynomial must have positive degree")
        if self.coeffs[n] != 1:
            raise InternalCheckError("leading coefficient must be 1")
        for i, c in enumerate(self.betti):
            if c < 0:
                raise InternalCheckError(f"coefficient of t^{n - i} has the wrong sign")
        if self.betti[1] != (1 << n) - 1:
            raise InternalCheckError("t^(n-1) coefficient must have absolute value 2^n - 1")

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


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def default_primes(n: int):
    """The n+1 smallest admissible primes for the rank-n arrangement."""
    if n not in MAX_01_DETERMINANT:
        raise ValueError(f"no determinant bound tabulated for n={n}")
    primes = []
    q = MAX_01_DETERMINANT[n] + 1
    while len(primes) < n + 1:
        if _is_prime(q):
            primes.append(q)
        q += 1
    return primes


# Parent rows expanded in one step.  A step holds up to _CHUNK * (q - 1)
# children of q bytes each, 2.2 MB at q = 67.
_CHUNK = 512
# Primes from here on are refused: a row mask takes q bytes, and below it
# every int64 chunk sum in _count_sorted stays under 2**63.
_MAX_PRIME = 2**31


def _check_prime(n: int, q: int) -> None:
    if n not in MAX_01_DETERMINANT:
        raise ValueError(f"no determinant bound tabulated for n={n}")
    bound = MAX_01_DETERMINANT[n]
    if q <= bound:
        raise ValueError(f"prime {q} must exceed {bound} for n={n}")
    if q >= _MAX_PRIME:
        raise ValueError(f"prime {q} is too large for the point count (limit 2^31)")
    if not _is_prime(q):
        raise ValueError(f"{q} is not prime")


def _count_sorted(sums, last, run, weight, m, n, q):
    """Weighted count of the sorted completions of a table of prefixes.

    Row i is a prefix (1, x_2 <= ... <= x_{m+1}) with no zero subset sum:
    ``sums[i]`` marks its subset sums in F_q (the empty sum 0 included),
    ``last[i]`` is x_{m+1}, ``run[i]`` the multiplicity of x_{m+1} and
    ``weight[i]`` = m! / prod(mult!), the orderings of x_2 .. x_{m+1}.
    Every row of a chunk is expanded at once.
    """
    values = np.arange(1, q)
    total = 0
    for s in range(0, len(sums), _CHUNK):
        S, L, r, w = (a[s : s + _CHUNK] for a in (sums, last, run, weight))
        # ok[i, v - 1]: v >= last and -v is not a subset sum, so v may follow.
        ok = ~S[:, :0:-1] & (values >= L[:, None])
        if m + 2 == n:
            # Last coordinate, counted without expansion: each allowed
            # v > last has weight w(m+1), and v = last has w(m+1)/(run+1).
            same = ok[np.arange(len(L)), L - 1]
            above = ok.sum(axis=1) - same
            # Per row at most (q - 1) * (n - 1)! < 2**31 * 7! < 2**44, so
            # the chunk's int64 sum is below 512 * 2**44 = 2**53.
            total += int((above * w * (m + 1) + same * (w * (m + 1) // (r + 1))).sum())
            continue
        i, j = np.nonzero(ok)
        v = j + 1
        new_run = np.where(v == L[i], r[i] + 1, 1)
        # The child's subset sums are S | (S + v); S + v is a window of S twice over.
        shifted = sliding_window_view(np.concatenate((S, S), axis=1), q, axis=1)[i, q - v]
        total += _count_sorted(S[i] | shifted, v, new_run, w[i] * (m + 1) // new_run, m + 1, n, q)
    return total


def _count_slice(job, n):
    """Weighted count of the sorted points (1, x2 <= x_3 <= ... <= x_n)
    of F_q^n, for ``job`` = (q, x2)."""
    q, x2 = job
    sums = np.zeros(q, dtype=bool)
    sums[[0, 1]] = True  # subset sums of (1,)
    if sums[q - x2]:
        return 0
    if n == 2:
        return 1
    one = np.ones(1, dtype=np.int64)
    return _count_sorted((sums | np.roll(sums, x2))[None], np.array([x2]), one, one, 1, n, q)


def count_points_avoiding(n: int, q: int) -> int:
    """Points of F_q^n with every nonempty subset sum nonzero.

    Valid points have x_1 != 0 and scaling by any nonzero constant is a
    bijection on them, so only the x_1 = 1 slice is counted and the
    count is multiplied by q - 1.  On that slice the condition does not
    change when x_2 .. x_n are permuted, so only sorted x_2 <= ... <= x_n
    are enumerated, each weighted by its (n-1)! / prod(mult!) distinct
    orderings.  This is exact: every point of the slice is an ordering
    of exactly one sorted point, and every ordering of a valid sorted
    point is valid.  The weights are integers throughout: appending v
    multiplies one by k / (run + 1), where k is the new number of free
    coordinates and run the multiplicity of v so far, and the quotient
    is the new weight, itself an integer.
    """
    _check_prime(n, q)
    return _point_counts(n, [q], 1)[0]


def _point_counts(n: int, primes, workers: int) -> list[int]:
    """``count_points_avoiding(n, q)`` for each of the checked ``primes``.

    The x_1 = 1 slice at q is split on x_2, its smallest free
    coordinate, into q - 1 jobs.  Every prime's jobs go through one
    ``run_jobs`` call, in a process pool when ``workers`` allows one, so
    one pool serves them all and no prime waits for the slowest slices
    of the one before.  The largest prime comes first: its low x_2
    slices are the longest jobs, and started first they do not hold up
    the end of the run.  Each prime's parts are summed in x_2 order, so
    the counts do not depend on ``workers``.
    """
    if n == 1:
        return [q - 1 for q in primes]
    jobs = [(q, x2) for q in sorted(primes, reverse=True) for x2 in range(1, q)]
    slices = dict.fromkeys(primes, 0)
    for (q, _), part in zip(jobs, run_jobs(partial(_count_slice, n=n), jobs, workers)):
        slices[q] += part
    return [(q - 1) * slices[q] for q in primes]


def run_jobs(fn, jobs, workers: int):
    """Yield ``fn(job)`` for each job, in job order.

    The pool has min(workers, jobs, usable cores) processes.  With fewer
    than two (0 and negative counts included), the jobs run in this
    process through ``map``; otherwise ``fn`` and the jobs must pickle.
    Where ``os.sched_getaffinity`` is missing (macOS, Windows) the
    usable cores are ``os.cpu_count()``.
    """
    size = min(workers, len(jobs))
    if size > 1:
        affinity = getattr(os, "sched_getaffinity", None)
        size = min(size, len(affinity(0)) if affinity else os.cpu_count() or 1)
    if size <= 1:
        yield from map(fn, jobs)
        return
    with ProcessPoolExecutor(max_workers=size) as pool:
        yield from pool.map(fn, jobs, chunksize=8)


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
    workers: int = 1,
) -> CharPoly:
    """Characteristic polynomial through point counts over n+1 prime fields.

    For admissible primes the count of points avoiding every hyperplane
    equals the polynomial evaluated at q, so n+1 counts determine it.
    Primes beyond the first n+1 are counted too, and each must agree
    with the interpolant.  ``cap`` bounds n; the ``finite_field_points``
    guard bounds the work of each count, and ``cap=None`` lifts both.
    """
    check_guard("finite-field method: n", n, cap)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n not in MAX_01_DETERMINANT:
        raise ValueError(f"no determinant bound tabulated for n={n}")
    if primes is None:
        primes = default_primes(n)
    primes = sorted(set(primes))
    if len(primes) < n + 1:
        raise ValueError(f"need at least {n + 1} distinct primes, got {len(primes)}")
    work_cap = None if cap is None else GUARDS["finite_field_points"]
    for q in primes:
        # The count walks C(q+n-3, n-1) sorted points in q - 1 jobs, one per
        # x_2, and each job first sets up a q-byte mask.
        work = comb(max(q + n - 3, 0), n - 1) + (q - 1) * q * (n > 1)
        check_guard(f"finite-field method at q={q}: point-count work", work, work_cap)
    for q in primes:
        _check_prime(n, q)
    if workers > 1:
        counts = _point_counts(n, primes, workers)
    else:  # no pool to share: one count_points_avoiding call per prime
        counts = [count_points_avoiding(n, q) for q in primes]
    pts = list(zip(primes, counts))
    poly = CharPoly(tuple(_interpolate_integer_poly(pts[: n + 1], n)))
    for q, count in pts[n + 1 :]:
        if poly(q) != count:
            raise InternalCheckError(f"{count} points at q={q}; the interpolant gives {poly(q)}")
    return poly


# One shared tuple per distinct Betti vector: through n=6 the memo holds
# 12350 entries but only 1416 distinct values, at n=7 747587 and 45522.
_BETTI = {}
# The restriction table: _RESTRICTED[h][w] is the normal w induces on h.
_RESTRICTED = {}
# One shared tuple per distinct induced normal, so the memo keys hold
# references to the same normals instead of fresh copies.
_INDUCED = {}


def _restriction_table(h: tuple, rest: tuple) -> dict:
    """``_RESTRICTED[h]``, extended by every normal of ``rest`` it lacks.

    ``restrict`` eliminates the pivot p of h from w, which leaves it zero
    at p, so deleting coordinate p gives the normal w induces on h.  It
    stays normalized, so parallel normals on h meet as one tuple.  A key
    holds distinct normalized normals, so none of ``rest`` is parallel
    to h; one that is would leave ``restrict`` nothing, and is refused.
    """
    table = _RESTRICTED.setdefault(h, {})
    new = [w for w in rest if w not in table]
    if new:
        p = next(j for j, x in enumerate(h) if x)
        for w in new:
            v = restrict([w], h)
            if not v:
                raise InternalCheckError(f"normal {w} is parallel to the deleted {h}")
            v = v[0][:p] + v[0][p + 1 :]
            table[w] = _INDUCED.setdefault(v, v)
    return table


@lru_cache(maxsize=None)
def _count_regions(normals: tuple) -> tuple:
    """Betti numbers b_0 .. b_rank of the arrangement of the normalized
    integer ``normals``; their sum is its number of regions.

    Deletion/restriction: removing a hyperplane h and adding back the
    regions it cuts, one per region of the arrangement induced on h,
    counts every chamber once, and per Betti number this reads
    b_i(A) = b_i(A - h) + b_{i-1}(A^h); the empty arrangement has (1,).
    ``_restriction_table`` gives the normals induced on h, each (h, w)
    pair restricted once however many keys share it: through n=6 the
    recursion looks up 196817 pairs, of which 18061 are distinct (over
    558 hyperplanes), and at n=7 276008 are.  Parallel ones meet in the
    set; sorting it makes the memo key canonical.  Every key is such a
    sorted tuple, the top-level one included (``_normals``), so the
    deletion A - h of a key is again canonical.  h is the last normal,
    the lexicographically largest: at n=6 that leaves 12350 memo entries
    where deleting the first one left 33223.
    """
    if not normals:
        return (1,)
    h, rest = normals[-1], normals[:-1]
    table = _restriction_table(h, rest)
    induced = {table[w] for w in rest}
    deleted = _count_regions(rest)
    restricted = (0,) + _count_regions(tuple(sorted(induced)))
    # A^h has rank one less than A, and A - h the rank of A or one less.
    betti = tuple(map(add, deleted + (0,) * (len(restricted) - len(deleted)), restricted))
    return _BETTI.setdefault(betti, betti)


def _normals(n: int, cap: int | None) -> tuple:
    """The normals of A_n, sorted as tuples: the order of every memo key."""
    check_guard("deletion/restriction: n", n, cap)
    if not 1 <= n <= 63:
        raise ValueError(f"n must be in 1..63, got {n}")
    if n > 8:  # _count_regions nests once per hyperplane, whatever the cap
        raise ValueError(f"deletion/restriction nests {(1 << n) - 1} calls deep at n={n}, "
                         "past the interpreter's recursion limit; it runs to n = 8")
    return tuple(sorted(mask_vector(h, n) for h in range(1, 1 << n)))


def whitney_charpoly(n: int, cap: int | None = GUARDS["deletion_restriction_n"]) -> CharPoly:
    """Characteristic polynomial by deletion/restriction (``_count_regions``).

    A_n is essential, so its Betti numbers run to b_n.  The historical
    name stays because the CLI method and the spans in ``perfbench/``
    bind it.
    """
    return CharPoly.from_betti(_count_regions(_normals(n, cap)))


def enumerate_chambers_bruteforce(
    n: int, cap: int | None = GUARDS["deletion_restriction_n"]
) -> int:
    """Chamber count: the sum of the Betti numbers ``whitney_charpoly`` reads."""
    return sum(_count_regions(_normals(n, cap)))
