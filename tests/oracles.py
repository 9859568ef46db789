"""Brute-force reference implementations used to cross-check the library.

Everything here is written from definitions with Fraction arithmetic,
full enumeration or closed formulas, independent of the production code
paths.  That includes the set partitions and the tetrahedron and
side-midpoint enumerations whose sizes ``resonance.circuits`` gives by
formula.  Test helpers built on the package's own kernels live in
``kernel_helpers``.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial


def mask_from_elements(elements) -> int:
    """Build a mask from an iterable of 1-based elements."""
    m = 0
    for e in elements:
        if e < 1:
            raise ValueError("elements are 1-based")
        m |= 1 << (e - 1)
    return m


def mask_vec(mask, n):
    return [ (mask >> i) & 1 for i in range(n) ]


def integer_det(rows):
    """Determinant of a square integer matrix, by cofactors along row 0."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * integer_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def max_abs_det_01(n):
    """Largest |det| of an n x n 0/1 matrix, over every set of n distinct
    rows (reordering rows changes only the sign)."""
    rows = [mask_vec(m, n) for m in range(1 << n)]
    return max(abs(integer_det(list(t))) for t in combinations(rows, n))


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


def partitions_into_blocks(size: int, k: int):
    """Each partition of {1..size} into exactly k blocks once, as a tuple
    of block masks in ascending order."""
    if not 1 <= k <= size:
        return
    assignment = [0] * size

    def rec(pos, used):
        if size - pos < k - used:
            return
        if pos == size:
            if used == k:
                blocks = [0] * k
                for e, lab in enumerate(assignment):
                    blocks[lab] |= 1 << e
                yield tuple(sorted(blocks))
            return
        for lab in range(min(used + 1, k)):
            assignment[pos] = lab
            yield from rec(pos + 1, max(used, lab + 1))

    yield from rec(0, 0)


def tetrahedron_circuits(n: int):
    """Yield each tetrahedron circuit once, as a frozenset of four masks.

    A partition of [n+1] into four blocks, with the block holding n+1
    last, maps to the circuit whose top set collects the first three
    blocks and whose other sets each drop one block.
    """
    for blocks in partitions_into_blocks(n + 1, 4):
        a4 = ((1 << (n + 1)) - 1) & ~blocks[3]
        family = [a4 & ~blocks[i] for i in range(3)] + [a4]
        yield frozenset(family)


@dataclass(frozen=True)
class SideMidpointTuple:
    """Four cyclic sides and a midpoint encoding a rectangle circuit.

    Sides are pairwise disjoint, disjoint from the nonempty midpoint,
    and at most one side of each opposite pair is empty.
    """

    sides: tuple[int, int, int, int]
    midpoint: int

    def __post_init__(self):
        union = 0
        for s in self.sides:
            if union & s:
                raise ValueError("sides must be pairwise disjoint")
            union |= s
        if self.midpoint == 0:
            raise ValueError("midpoint must be nonempty")
        if union & self.midpoint:
            raise ValueError("midpoint must be disjoint from every side")
        if (not self.sides[0] and not self.sides[2]) or (
            not self.sides[1] and not self.sides[3]
        ):
            raise ValueError("at most one side of each opposite pair may be empty")


def rectangle_from_sides(t: SideMidpointTuple) -> tuple[int, int, int, int]:
    """Vertices of the rectangle circuit: each set joins the midpoint with
    its two incident sides (cyclic order)."""
    s = t.sides
    return tuple(t.midpoint | s[i - 1] | s[i] for i in range(4))


def side_midpoint_tuples(n: int):
    """Every labeled side-midpoint tuple over [n] (exhaustive; small n)."""
    if n > 4:
        raise ValueError("exhaustive tuple enumeration intended for n <= 4")

    def rec(e, sides, mid):
        if e == n:
            try:
                yield SideMidpointTuple(tuple(sides), mid)
            except ValueError:
                pass
            return
        bit = 1 << e
        yield from rec(e + 1, sides, mid)          # element unused
        yield from rec(e + 1, sides, mid | bit)    # element in the midpoint
        for i in range(4):
            sides[i] |= bit
            yield from rec(e + 1, sides, mid)
            sides[i] &= ~bit

    yield from rec(0, [0, 0, 0, 0], 0)


def rectangle_circuit_families(n: int) -> set[frozenset[int]]:
    """Distinct rectangle circuits, as unordered families (small n)."""
    return {frozenset(rectangle_from_sides(t)) for t in side_midpoint_tuples(n)}


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


def whitney_charpoly_vectors_oracle(vectors, dim):
    """Coefficients of chi of the central arrangement in Q**dim with the
    integer normals ``vectors``, ``coeffs[d]`` of t**d, by Whitney's sum
    over all subsets S of the hyperplanes of (-1)**|S| * t**(dim - rank S).

    The subsets are walked depth first.  A node carries the rows it has
    reduced so far, each zero at the pivots of the rows before it, so a
    new vector is reduced in one pass and a child shares its parent's rows.
    """
    vectors = list(vectors)
    coeffs = [0] * (dim + 1)

    def walk(idx, rows, sign):
        if idx == len(vectors):
            coeffs[dim - len(rows)] += sign
            return
        walk(idx + 1, rows, sign)
        v = vectors[idx]
        for p, row in rows:
            if v[p]:
                v = [row[p] * a - v[p] * b for a, b in zip(v, row)]
        p = next((j for j, x in enumerate(v) if x), None)
        walk(idx + 1, rows if p is None else rows + ((p, v),), -sign)

    walk(0, (), 1)
    return tuple(coeffs)


def whitney_charpoly_oracle(n):
    """Coefficients of chi(A_n), over all 2**(2**n - 1) subsets of its
    hyperplanes."""
    return whitney_charpoly_vectors_oracle([mask_vec(h, n) for h in range(1, 1 << n)], n)


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


def stirling2_altsum(n: int, k: int) -> int:
    """S(n, k) via the alternating binomial sum; exact integer division."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    if k == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1))
    q, r = divmod(total, factorial(k))
    if r:
        raise ArithmeticError(f"alternating sum for S({n},{k}) not divisible by {k}!")
    return q


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


def certificate_columns(certificate):
    """The 0/1 columns of an embedding certificate (``certificate_dict``),
    each a list over its coordinates, in its ``column_order``."""
    vectors = {**certificate["carriers"], **certificate["helpers"]}
    return [[int(b) for b in vectors[lab]] for lab in certificate["column_order"]]


def dense_pivot_replay(certificate, pivots):
    """Gauss-Jordan over Q on the whole ambient matrix of a certificate.

    Pivots the ambient_dim x (carriers + helpers) 0/1 matrix at each
    [row name, column label] pair in turn and returns the pivoted
    columns by label.
    """
    labels = certificate["column_order"]
    cols = certificate_columns(certificate)
    rows = [[Fraction(c[i]) for c in cols] for i in range(certificate["ambient_dim"])]
    row_of = {name: i for i, name in enumerate(certificate["coordinates"])}
    col_of = {lab: j for j, lab in enumerate(labels)}
    for name, lab in pivots:
        r, c = row_of[name], col_of[lab]
        pr = [x / rows[r][c] for x in rows[r]]
        rows = [
            pr if i == r else [a - row[c] * b for a, b in zip(row, pr)]
            for i, row in enumerate(rows)
        ]
    return {lab: [row[j] for row in rows] for j, lab in enumerate(labels)}
