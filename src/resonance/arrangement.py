"""The resonance arrangement: all 2**n - 1 subset-sum hyperplanes in R^n.

Provides the characteristic polynomial by two independent routes: a
deletion/restriction recursion on Betti numbers, whose sum is also the
chamber count, and point counting over prime fields followed by
interpolation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import zip_longest
from math import comb

import numpy as np

from .errors import GUARDS, InternalCheckError, check_guard
from .linalg import integer_coefficients, restrict

# Largest determinant of an n x n 0/1 matrix.  Any prime strictly above
# this bound preserves every rank among 0/1 columns when reducing mod p.
MAX_01_DETERMINANT = {1: 1, 2: 1, 3: 2, 4: 3, 5: 5, 6: 9, 7: 32, 8: 56}


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial; coeffs[d] is the coefficient of t**d.

    The unsigned coefficients, read from the top degree down, are the
    Betti numbers b_0 .. b_n.  Every instance is some route's chi(A_n),
    so a failed check is an internal error, not bad input.  A_n is
    central and nonempty, so chi(1) = 0, which checks b_n against the
    lower coefficients.
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
        if self(1) != 0:
            raise InternalCheckError("chi(1) must be 0: A_n is central and nonempty")

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


# A step of the point count holds at most _CHUNK words of prefix masks
# (32 kB), or the children of one prefix: the children it forms, or the
# prefixes whose last coordinate it counts.  Each mask is ceil(q/64) words,
# so a counting step has at most 64 * _CHUNK / q prefixes, each with under
# q free values of weight at most (n - 1)! <= 7!, and every int64 step sum
# in _count_sorted is below 64 * _CHUNK * 7! < 2**31, or q * 7! < 2**44
# for a step of one prefix.
_CHUNK = 4096
# Primes from here on are refused: below it a mask takes at most 2**25
# words and a one-prefix step sum stays under 2**44.
_MAX_PRIME = 2**31
_ALL = ~np.uint64(0)


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


def _shift(x, d):
    """``x << d`` where the per-mask amount d >= 0, ``x >> -d`` where d < 0.

    numpy gives 0 for a uint64 shift of 64 or more, and a negative
    amount cast to uint64 is one, so the other half of the OR is 0."""
    return (x << d.astype(np.uint64)) | (x >> (-d).astype(np.uint64))


def _rotate(masks, v, q):
    """Each q-bit mask, a column of ``masks``, rotated down by its own
    ``v`` in 1 .. q-1: bit j of the result is bit (j + v) mod q of the mask.

    That is masks >> v | masks << (q - v), cut to q bits.  Word k of the
    first takes word k + o of the mask, and word k of the second word
    k - o, for o = 0, 1, ..., W - 1, each by a per-mask shift; the word
    pairs a shift does not join get an amount of 64 or more, hence 0.
    """
    W = len(masks)
    out = (masks >> v.astype(np.uint64)) | (masks << (q - v).astype(np.uint64))
    for o in range(1, W):
        out[:-o] |= _shift(masks[o:], 64 * o - v)
        out[o:] |= _shift(masks[:-o], q - v - 64 * o)
    out[-1] &= _ALL >> np.uint64(64 * W - q)
    return out


def _offsets(b, W):
    """Per column, where bit ``b`` falls in each of W words: b - 64 k in word k."""
    return b - 64 * np.arange(W)[:, None]


def _bit(b, W):
    """Per column, the W-word mask of bit ``b`` alone."""
    return np.uint64(1) << _offsets(b, W).astype(np.uint64)


def _at_least(d):
    """Per column, the W-word mask of the bits at or above the bit whose
    ``_offsets`` are ``d``."""
    return _ALL << np.where(d > 0, d, 0).astype(np.uint64)


def _count_sorted(neg, last, run, weight, m, n, q):
    """Weighted count of the sorted completions of a table of prefixes.

    Column i is a prefix (1, x_2 <= ... <= x_{m+1}) with no zero subset
    sum: ``neg[:, i]`` is the q-bit mask, in W = ceil(q/64) uint64 words,
    of the negated subset sums -S in F_q (the empty sum 0 included),
    ``last[i]`` is x_{m+1}, ``run[i]`` the multiplicity of x_{m+1} and
    ``weight[i]`` = m! / prod(mult!), the orderings of x_2 .. x_{m+1}.
    v may follow iff v >= last and bit v of the mask is clear, and
    appending v makes the mask neg | rotate(neg, v), since the new subset
    sums are S and S + v.  Each step expands its prefixes at once.  Word
    k of every mask is one row of ``neg``, so each numpy pass runs along
    the prefixes, not along a mask's few words.
    """
    W = len(neg)
    total = 0
    if m + 2 == n:
        # Last coordinate, counted without expansion: each allowed v > last
        # has weight w(m+1), and v = last has w(m+1)/(run+1).
        cols = max(1, _CHUNK // W)
        for s in range(0, len(last), cols):
            R = neg[:, s : s + cols]
            L, r, w = (a[s : s + cols] for a in (last, run, weight))
            d = _offsets(L, W)
            # Of the q - L values v >= last, taken have their bit set, and
            # same is 1 when v = last is free.
            taken = np.bitwise_count(R & _at_least(d)).sum(axis=0, dtype=np.int64)
            same = 1 - (R >> d.astype(np.uint64) & 1).sum(axis=0, dtype=np.int64)
            above = q - L - taken - same
            w = w * (m + 1)
            total += int((above * w + same * (w // (r + 1))).sum())
        return total
    # free[:, i]: the clear bits v >= last of prefix i, the values that may follow.
    free = ~neg & _at_least(_offsets(last, W))
    free[-1] &= _ALL >> np.uint64(64 * W - q)
    before = np.zeros(len(last) + 1, dtype=np.int64)  # children of the prefixes before i
    np.bitwise_count(free).sum(axis=0, dtype=np.int64).cumsum(out=before[1:])
    s = 0
    while s < len(last):
        e = max(s + 1, int(np.searchsorted(before, before[s] + _CHUNK // W, "right")) - 1)
        table = neg[:, s:e], *(a[s:e] for a in (last, run, weight)), free[:, s:e]
        total += _count_sorted(*_children(*table, m, q), m + 1, n, q)
        s = e
    return total


def _children(neg, last, run, weight, free, m, q):
    """The children of a table of prefixes: each prefix with one of its
    ``free`` values appended, in the order of ``_count_sorted``'s
    arguments."""
    # Row i of bits holds prefix i's q free flags, v's at column v.
    bits = np.unpackbits(np.ascontiguousarray(free.T, dtype="<u8").view(np.uint8), axis=1,
                         count=q, bitorder="little")
    i, v = np.divmod(np.flatnonzero(bits.view(bool)), q)  # faster than a 2-d nonzero
    new_run = np.where(v == last[i], run[i] + 1, 1)
    parent = neg.take(i, axis=1)
    return parent | _rotate(parent, v, q), v, new_run, weight[i] * (m + 1) // new_run


def _count_slice(job, n):
    """Weighted count of the sorted points (1, x_2 <= x_3 <= ... <= x_n)
    of F_q^n whose x_2 lies in the strided piece ``job`` = (q, start, step):
    x_2 = start + 1, start + 1 + step, ...  The piece is one table of
    prefixes (1, x_2), cut into tables of _CHUNK words of masks where it
    is larger (from q = 521 in one piece)."""
    q, start, step = job
    # x_2 = q - 1 is -1, and 1 is a subset sum of (1,).
    if n == 2:
        return len(range(start + 1, q - 1, step))
    x2 = np.arange(start + 1, q - 1, step)
    W = -(-q // 64)
    cols = max(1, _CHUNK // W)
    total = 0
    for s in range(0, len(x2), cols):
        x = x2[s : s + cols]
        # The negated subset sums of (1, x_2): 0, -1, -x_2 and -1 - x_2.
        neg = _bit(np.zeros_like(x), W) | _bit(np.full_like(x, q - 1), W)
        neg |= _bit(q - x, W) | _bit(q - 1 - x, W)
        one = np.ones(len(x), dtype=np.int64)
        total += _count_sorted(neg, x, one, one, 1, n, q)
    return total


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
    is the new weight, itself an integer.  A prefix is held as the q-bit
    mask of its negated subset sums in ceil(q/64) uint64 words (one word
    through q = 61, two through q = 127), so a value may follow when its
    bit is clear, and the last coordinate is one popcount.
    """
    _check_prime(n, q)
    return _point_counts(n, [q], 1)[0]


def _point_counts(n: int, primes, workers: int) -> list[int]:
    """``count_points_avoiding(n, q)`` for each of the checked ``primes``.

    The x_1 = 1 slice at q is cut on x_2, its smallest free coordinate,
    into strided pieces, each one table of prefixes (``_count_slice``):
    one piece per prime with one worker, otherwise 8 per worker (at most
    q - 1), enough that ``run_jobs``' chunks of 8 pieces balance, since
    striding spreads the long low-x_2 slices over every piece.  Every
    prime's pieces go through one ``run_jobs`` call, so one pool serves
    them all, the largest prime first.  The parts are exact ints summed
    per prime, so the counts do not depend on ``workers``.
    """
    if n == 1:
        return [q - 1 for q in primes]
    jobs = []
    for q in sorted(primes, reverse=True):
        pieces = 1 if workers <= 1 else min(8 * workers, q - 1)
        jobs += [(q, start, pieces) for start in range(pieces)]
    slices = dict.fromkeys(primes, 0)
    for (q, _, _), part in zip(jobs, run_jobs(partial(_count_slice, n=n), jobs, workers)):
        slices[q] += part
    return [(q - 1) * slices[q] for q in primes]


def run_jobs(fn, jobs, workers: int):
    """Yield ``fn(job)`` for each job, in job order.

    The pool has min(workers, jobs, usable cores) processes.  With fewer
    than two (0 and negative counts included), the jobs run in this
    process through ``map``; otherwise ``fn`` and the jobs must pickle.
    Where ``os.sched_getaffinity`` is missing (macOS, Windows) the
    usable cores are ``os.cpu_count()``.  The pool module is imported
    only when a pool starts, so a run at one worker never loads
    ``multiprocessing``.
    """
    size = min(workers, len(jobs))
    if size > 1:
        affinity = getattr(os, "sched_getaffinity", None)
        size = min(size, len(affinity(0)) if affinity else os.cpu_count() or 1)
    if size <= 1:
        yield from map(fn, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        yield from pool.map(fn, jobs, chunksize=8)


def _interpolate_integer_poly(points, degree):
    """Exact interpolation: solve the Vandermonde system through the
    echelon kernel; the coefficients must be integers."""
    columns = [[x**d for x, _ in points] for d in range(degree + 1)]
    coeffs = integer_coefficients(columns, [y for _, y in points])
    if coeffs is None:
        raise InternalCheckError("interpolated polynomial is not integral")
    return coeffs


def finite_field_charpoly(
    n: int,
    primes=None,
    cap: int | None = GUARDS["finite_field_points"],
    workers: int = 1,
) -> CharPoly:
    """Characteristic polynomial through point counts over n+1 prime fields.

    For admissible primes the count of points avoiding every hyperplane
    equals the polynomial evaluated at q, so n+1 counts determine it.
    Primes beyond the first n+1 are counted too, and each must agree
    with the interpolant.  ``cap`` bounds the work of each count, once
    every prime has passed ``_check_prime``.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if primes is None:
        primes = default_primes(n)
    primes = sorted(set(primes))
    if len(primes) < n + 1:
        raise ValueError(f"need at least {n + 1} distinct primes, got {len(primes)}")
    for q in primes:
        _check_prime(n, q)
    for q in primes:
        # The count walks C(q+n-3, n-1) sorted points, and from n = 3 its
        # first prefixes (1, x_2) hold (q - 1) * q bits of masks.
        work = comb(max(q + n - 3, 0), n - 1) + (q - 1) * q * (n > 2)
        check_guard(f"finite-field method at q={q}: point-count work", work, cap)
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
# 1422 entries but only 203 distinct values, at n=7 68443 and 4538.
_BETTI = {}
# The int code of each normal met (_CODE) and back (_NORMAL).  A memo key
# is a sorted tuple of codes, which hashes and compares far faster than a
# tuple of tuples, and holds one shared int per normal.
_CODE = {}
_NORMAL = {}
# The restriction table: _RESTRICTED[h][w] is the code of the normal that
# the normal coded w induces on the hyperplane coded h.
_RESTRICTED = {}


def _code(v: tuple) -> int:
    """The int code of the integer normal ``v``: a leading 1, then each
    entry + 128 as one byte, big-endian.

    Among normals of one dimension, codes order as the tuples do, so a
    key sorted by code is the key sorted by normal.  Entries must lie in
    -128 .. 127; through n=7 they are at most 9 in size.
    """
    c = _CODE.get(v)
    if c is None:
        try:
            c = int.from_bytes(bytes([1, *(x + 128 for x in v)]), "big")
        except ValueError:
            raise InternalCheckError(f"normal {v} has an entry outside -128..127") from None
        _CODE[v] = c
        _NORMAL[c] = v
    return c


def _restrict_missing(h: int, table: dict, rest: tuple) -> None:
    """Extend ``table``, ``_RESTRICTED[h]``, by every normal of ``rest`` it
    lacks, with one ``restrict`` call.

    ``restrict`` eliminates the pivot p of h from w, which leaves it zero
    at p, so deleting coordinate p gives the normal w induces on h.  It
    stays normalized, so parallel normals on h meet as one code.  A key
    holds distinct normalized normals, so none of ``rest`` is parallel
    to h; one that is would leave ``restrict`` nothing, and is refused.
    """
    new = [w for w in rest if w not in table]
    hv = _NORMAL[h]
    p = hv.index(next(filter(None, hv)))
    out = restrict([_NORMAL[w] for w in new], hv)
    if len(out) < len(new):
        w = next(_NORMAL[w] for w in new if not restrict([_NORMAL[w]], hv))
        raise InternalCheckError(f"normal {w} is parallel to the deleted {hv}")
    for w, v in zip(new, out):
        table[w] = _code(v[:p] + v[p + 1 :])


@lru_cache(maxsize=None)
def _count_regions(codes: tuple) -> tuple:
    """Betti numbers b_0 .. b_rank of the arrangement of the normalized
    integer normals whose ``_code``s are ``codes``; their sum is its
    number of regions.

    Deletion/restriction, b_i(A) = b_i(A - h) + b_{i-1}(A^h) (removing h
    adds back one region per region of A^h, the arrangement induced on
    h), unrolled along the key h_1 < ... < h_m: b(A) = (1,) +
    x * sum_j b(A_{<j}^{h_j}), where A_{<j}^{h_j} is what h_1 .. h_{j-1}
    induce on h_j.  So only restrictions become memo keys, and calls
    nest once per dimension, at most n + 1 deep for A_n.
    ``_RESTRICTED[h]`` gives the induced normals, each (h, w) pair
    restricted once (``_restrict_missing``); parallel ones meet in the
    set, and sorting it makes the key canonical.  A key of dimension
    <= 3 (codes below 2**32) restricts to planes or lines, where k
    distinct normals have Betti numbers (1, k, k - 1), or (1, 1) and
    (1,) for k = 1 and 0, summed here with no sort and no memo call.
    """
    plane = codes and codes[-1] < 1 << 32
    parts = []
    for j, h in enumerate(codes):
        rest = codes[:j]
        table = _RESTRICTED.get(h)
        if table is None:
            table = _RESTRICTED[h] = {}
        try:
            induced = {*map(table.__getitem__, rest)}
        except KeyError:
            _restrict_missing(h, table, rest)
            induced = {*map(table.__getitem__, rest)}
        parts.append(len(induced) if plane else _count_regions(tuple(sorted(induced))))
    if plane:
        betti = (1, len(parts), sum(parts), sum(k - 1 for k in parts if k > 1))
        betti = betti[: 4 - betti.count(0)]
    else:
        betti = (1, *map(sum, zip_longest(*parts, fillvalue=0)))
    return _BETTI.setdefault(betti, betti)


def _normals(n: int, cap: int | None) -> tuple:
    """The codes of the normals of A_n, sorted: the order of every memo key."""
    if not 1 <= n <= 8:
        past = ": every other chi route stops at n=8, so nothing would check it" if n > 8 else ""
        raise ValueError(f"n must be in 1..8, got {n}{past}")
    check_guard("deletion/restriction: n", n, cap)
    return tuple(sorted(_code(tuple(h >> i & 1 for i in range(n))) for h in range(1, 1 << n)))


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
