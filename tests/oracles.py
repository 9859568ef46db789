"""Brute-force reference implementations used to cross-check the library.

Everything here is written from definitions with Fraction arithmetic
and full enumeration, independent of the production code paths.
"""

from fractions import Fraction
from itertools import combinations


def mask_vec(mask, n):
    return [ (mask >> i) & 1 for i in range(n) ]


def fraction_rank(vectors):
    """Plain Gaussian elimination over Q."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / pr[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def rank_mod_p(masks, n, p):
    """Rank of the 0/1 vectors over the prime field F_p."""
    rows = [mask_vec(m, n) for m in masks]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col] % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def span_coefficients_oracle(vectors, target):
    """Coefficients expressing ``target`` over ``vectors``, or None.

    Gauss-Jordan over Q on the columns; free columns get coefficient 0,
    so for dependent vectors this is one particular solution.
    """
    m = len(vectors)
    rows = [
        [Fraction(v[i]) for v in vectors] + [Fraction(target[i])]
        for i in range(len(target))
    ]
    piv_cols = []
    r = 0
    for c in range(m):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pr = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / pr[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        piv_cols.append(c)
        r += 1
    if any(rows[i][m] for i in range(r, len(rows))):
        return None
    coeffs = [Fraction(0)] * m
    for idx, c in enumerate(piv_cols):
        coeffs[c] = rows[idx][m] / rows[idx][c]
    return coeffs


def intersecting_triples_bruteforce(n):
    """Three-element families of nonempty subsets of [n], pairwise intersecting."""
    return sum(
        1
        for a, b, c in combinations(range(1, 1 << n), 3)
        if a & b and a & c and b & c
    )


def mask_rank_oracle(masks, n):
    return fraction_rank([mask_vec(m, n) for m in masks])


def is_dependent(masks, n):
    return mask_rank_oracle(masks, n) < len(masks)


def all_circuits(n, max_size=None):
    """Minimal dependent subsets of the arrangement's normals."""
    universe = list(range(1, 1 << n))
    top = max_size if max_size is not None else n + 1
    circuits = []
    for size in range(2, top + 1):
        for cand in combinations(universe, size):
            if not is_dependent(cand, n):
                continue
            if all(not is_dependent(sub, n) for sub in combinations(cand, size - 1)):
                circuits.append(frozenset(cand))
    return circuits


def broken_circuits_oracle(n, max_size=None):
    """Each circuit minus its largest element, straight from the definition."""
    return {frozenset(sorted(c)[:-1]) for c in all_circuits(n, max_size)}


def is_nbc_oracle(masks, n, broken=None):
    if broken is None:
        broken = broken_circuits_oracle(n)
    s = set(masks)
    return not any(b <= s for b in broken)


def nbc_counts_oracle(n):
    """Count NBC sets per cardinality by filtering every subset."""
    universe = list(range(1, 1 << n))
    broken = broken_circuits_oracle(n)
    counts = [0] * (n + 1)
    for size in range(n + 1):
        for cand in combinations(universe, size):
            if is_nbc_oracle(cand, n, broken):
                counts[size] += 1
    return counts


def count_points_oracle(n, q):
    """Literal loop over F_q^n testing every nonempty subset sum."""
    from itertools import product

    count = 0
    for point in product(range(q), repeat=n):
        good = True
        for mask in range(1, 1 << n):
            s = sum(point[i] for i in range(n) if mask >> i & 1) % q
            if s == 0:
                good = False
                break
        if good:
            count += 1
    return count


def stirling_oracle(n, k):
    """Count partitions of {1..n} into k blocks by explicit enumeration."""
    if n == 0:
        return 1 if k == 0 else 0
    parts = [0]
    count = 0

    def rec(e, blocks):
        nonlocal count
        if e == n:
            if len(blocks) == k:
                count += 1
            return
        for i in range(len(blocks)):
            blocks[i] += 1
            rec(e + 1, blocks)
            blocks[i] -= 1
        if len(blocks) < k:
            blocks.append(1)
            rec(e + 1, blocks)
            blocks.pop()

    rec(1, [1])
    return count
