"""Matroid, circuit and prototype helpers that only the tests call.

Unlike ``oracles``, these are built on the package's own kernels
(``EchelonBasis`` and ``restrict``), so the tests compare them with
``oracles`` or with the package's other routes rather than trusting
them as references.  Where they need coefficients they take the Fraction
solve ``oracles.span_coefficients_oracle``, not the package's solver, so
the census's definition-level oracle stays independent of it.
``_binary_span_points`` lists the 0/1 points of a span by the integer
subset sums that the census's ``linalg._closing_points`` also runs, but
over a basis of its own that carries no coefficients.
``is_nbc`` and ``is_broken_circuit`` test one set of hyperplanes by the
definition; the prototype census, which judges the orderings of an image
set together, is held to ``is_nbc`` one prototype at a time.
``betti_via_integer_nbc`` is
the NBC search over the integers, one node at a time, that the block
search over F_p in ``resonance.nbc`` replaced; the tests hold the new
kernel to its counts.  ``sides_from_rectangle`` inverts the
oracles' side-midpoint construction, which the tests check both ways
against the enumerations there.  Prototypes and
partitions are plain tuples of masks here: a prototype is its image
tuple, a partition its blocks in ascending mask order.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import lcm

from resonance.errors import InternalCheckError
from resonance.linalg import EchelonBasis, restrict

from oracles import SideMidpointTuple, span_coefficients_oracle

MAX_GROUND_SET = 63  # masks stay within one machine word


def mask_vector(mask: int, n: int) -> tuple[int, ...]:
    """The 0/1 normal vector of the hyperplane encoded by ``mask``."""
    return tuple((mask >> i) & 1 for i in range(n))


def validate_ground_set(n: int) -> None:
    if not 1 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground set size must be in 1..{MAX_GROUND_SET}, got {n}")


def validate_mask(mask: int, n: int) -> int:
    validate_ground_set(n)
    if not isinstance(mask, int) or isinstance(mask, bool):
        raise ValueError(f"mask must be an int, got {type(mask).__name__}")
    if mask <= 0:
        raise ValueError("mask must encode a nonempty subset")
    if mask >= 1 << n:
        raise ValueError(f"mask {mask} out of range for n={n}")
    return mask


def _binary_span_points(vectors):
    """``(rank, points)`` for integer ``vectors``: their rank and every
    nonzero 0/1 vector of their span, as tuples, in no fixed order.

    A vector v of the span is fixed by its entries at the pivots of the
    reduced basis: v = sum v[p_j] / a_j * r_j, for r_j the row of pivot
    p_j and a_j = r_j[p_j].  A 0/1 point therefore is the sum of a subset
    of the rows r_j / a_j, and scaling every row by L = lcm |a_j| keeps
    the 2^rank - 1 subset sums in ints: the points are the sums whose
    every entry is 0 or L.
    """
    basis = EchelonBasis()
    for v in vectors:
        basis.add(v)
    scale = lcm(*(row[p] for p, row in zip(basis._pivots, basis._rows)))
    sums = [[0] * len(basis._rows[0])] if basis._rows else [[]]
    for p, row in zip(basis._pivots, basis._rows):
        step = scale // row[p]
        sums += [[x + step * y for x, y in zip(s, row)] for s in sums]
    ends = {0, scale}
    return basis.rank, [tuple(x // scale for x in s) for s in sums[1:] if ends.issuperset(s)]


def is_broken_circuit(masks, n: int) -> bool:
    """True iff some hyperplane above max(masks) closes the set to a circuit.

    T + {h} is a circuit iff T is independent and h is a combination of
    all of T with nonzero coefficients.  So only the hyperplanes in the
    span of T can close it: its 0/1 points, at most 2^|T| - 1 of them,
    which integer subset sums find (``_binary_span_points``).
    Only a point above max(T) is solved for its coefficients, by the
    Fraction oracle.
    """
    given = list(masks)
    T = sorted(set(given))
    if not T:
        raise ValueError("broken circuits are nonempty")
    for m in T:
        validate_mask(m, n)
    if len(T) != len(given):
        raise ValueError("elements must be distinct")
    vectors = [mask_vector(m, n) for m in T]
    rank, points = _binary_span_points(vectors)
    if rank < len(T):
        return False
    return any(
        sum(bit << j for j, bit in enumerate(point)) > T[-1]
        and all(span_coefficients_oracle(vectors, point))
        for point in points
    )


def is_nbc(masks, n: int) -> bool:
    """True iff no subset is a broken circuit.

    Two-element broken circuits are exactly the disjoint pairs (the only
    three-element circuits are {A, B, A+B} for disjoint A, B), which the
    mask intersection test settles without linear algebra; larger
    subsets go through the generic circuit search.  n is checked, even
    with no masks, and every mask against it, whichever test would
    reach it.
    """
    validate_ground_set(n)
    given = list(masks)
    for m in given:
        validate_mask(m, n)
    S = sorted(set(given))
    if len(S) != len(given):
        raise ValueError("elements must be distinct")
    for a, b in combinations(S, 2):
        if not a & b:
            return False
    for size in range(3, len(S) + 1):
        for T in combinations(S, size):
            if is_broken_circuit(T, n):
                return False
    return True


def _validated_masks(masks, n):
    out = list(masks)
    for m in out:
        validate_mask(m, n)
    return out


def _basis_of(masks, n):
    basis = EchelonBasis()
    for m in masks:
        basis.add(mask_vector(m, n))
    return basis


def mask_rank(masks, n: int) -> int:
    """Rank over Q of a collection of 0/1 normal vectors."""
    return _basis_of(_validated_masks(masks, n), n).rank


def is_independent(masks, n: int) -> bool:
    cols = list(masks)
    return mask_rank(cols, n) == len(cols)


def closure(subset, universe, n: int):
    """All hyperplanes of ``universe`` lying in the span of ``subset``."""
    sub = _validated_masks(subset, n)
    uni = _validated_masks(universe, n)
    uniset = set(uni)
    for m in sub:
        if m not in uniset:
            raise ValueError(f"mask {m} not in the universe")
    basis = _basis_of(sub, n)
    return {h for h in uni if not any(basis.residual(mask_vector(h, n)))}


def fundamental_circuit(independent_masks, e: int, n: int):
    """The unique circuit inside ``independent_masks + [e]`` through e.

    Returns a frozenset; raises if e already belongs to the set or lies
    outside its span.
    """
    base = _validated_masks(independent_masks, n)
    validate_mask(e, n)
    if e in base:
        raise ValueError("element already belongs to the independent set")
    if _basis_of(base, n).rank < len(base):
        raise ValueError("base set is not independent")
    coeffs = span_coefficients_oracle([mask_vector(m, n) for m in base], mask_vector(e, n))
    if coeffs is None:
        raise ValueError("element does not lie in the closure of the base set")
    support = [bm for bm, c in zip(base, coeffs) if c]
    return frozenset(support) | {e}


def nbc_extend(masks, e: int, n: int) -> bool:
    """Incremental test: does appending e keep the set NBC?

    Requires e above the current maximum and the input already NBC.
    """
    S = sorted(masks)
    validate_mask(e, n)
    if S and e <= S[-1]:
        raise ValueError("new element must exceed the current maximum")
    old = _basis_of(S, n)
    new = _basis_of(S, n)
    if not new.add(mask_vector(e, n)):
        return False
    for f in range(e + 1, 1 << n):
        fv = mask_vector(f, n)
        if not any(new.residual(fv)) and any(old.residual(fv)):
            return False
    return True


def _last_copies(rows):
    """Each row once, at the position of its last copy."""
    return list(dict.fromkeys(rows[::-1]))[::-1]


def _dfs(cands, depth, max_depth, counts):
    """Count the NBC sets below a node whose set has ``depth`` elements."""
    counts[depth + 1] += len(cands)
    if depth + 1 < max_depth:
        for pos, res in enumerate(cands):
            _dfs(_last_copies(restrict(cands[pos + 1 :], res)), depth + 1, max_depth, counts)


def _count_from_root(root, n, max_depth):
    """NBC sets per cardinality whose least hyperplane is ``root``."""
    counts = [0] * (max_depth + 1)
    counts[1] = 1
    if max_depth > 1:
        tail = [mask_vector(m, n) for m in range(root + 1, 1 << n)]
        _dfs(_last_copies(restrict(tail, mask_vector(root, n))), 1, max_depth, counts)
    return counts


def betti_via_integer_nbc(n: int, i_max: int) -> list[int]:
    """b_0 .. b_{i_max} of A_n by the integer NBC search, one root at a time.

    A node holds the gcd-normalized integer residuals of the later
    hyperplanes, each once at its last copy, and a child restricts the
    tail after one member to it with ``restrict``.
    """
    counts = [1] + [0] * i_max
    for root in range(1, 1 << n):
        for d, c in enumerate(_count_from_root(root, n, i_max)[1:], 1):
            counts[d] += c
    return counts


@dataclass(frozen=True)
class NbcSet:
    """A validated no-broken-circuit set, elements strictly increasing."""

    elements: tuple[int, ...]
    n: int

    def __post_init__(self):
        if list(self.elements) != sorted(set(self.elements)):
            raise ValueError("elements must be strictly increasing")
        if not is_nbc(self.elements, self.n):
            raise ValueError("set contains a broken circuit")


class CircuitTag(Enum):
    TYPE_I = "tetrahedron"
    TYPE_II = "midpoint-symmdiff"
    TYPE_III = "midpoint-union"
    TYPE_IV = "shifted-rectangle"
    NOT_RELEVANT = "not-a-relevant-circuit"


@dataclass(frozen=True)
class CircuitType:
    """Classification result with the witnessing pair (and shift set)."""

    tag: CircuitTag
    a1: int | None = None
    a3: int | None = None
    x: int | None = None


def _pairwise_intersecting(masks) -> bool:
    return all(a & b for a, b in combinations(masks, 2))


def classify_relevant_4circuit(family, n: int) -> CircuitType:
    """Match a four-element family against the relevant-circuit patterns.

    The maximum element must complete the pattern; the three smaller
    sets must be pairwise intersecting.  The shift set of the fourth
    pattern is required nonempty and inside the symmetric difference.
    """
    fam = sorted(set(family))
    if len(fam) != 4:
        raise ValueError("need four distinct masks")
    for m in fam:
        validate_mask(m, n)
    top = fam[3]
    rest = fam[:3]
    if not _pairwise_intersecting(rest):
        return CircuitType(CircuitTag.NOT_RELEVANT)
    for a1_idx, a3_idx in ((0, 1), (0, 2), (1, 2)):
        a1, a3 = rest[a1_idx], rest[a3_idx]
        a2 = rest[3 - a1_idx - a3_idx]
        inter, sdiff, union = a1 & a3, a1 ^ a3, a1 | a3
        if not (inter and a1 & ~a3 and a3 & ~a1):
            continue
        if a2 == sdiff and top == union:
            return CircuitType(CircuitTag.TYPE_I, a1, a3)
        if a2 == inter and top == sdiff:
            return CircuitType(CircuitTag.TYPE_II, a1, a3)
        if a2 == inter and top == union:
            return CircuitType(CircuitTag.TYPE_III, a1, a3)
        x = a2 & ~inter
        if x and a2 == inter | x and x & ~sdiff == 0 and top == union & ~x:
            return CircuitType(CircuitTag.TYPE_IV, a1, a3, x)
    return CircuitType(CircuitTag.NOT_RELEVANT)


def sides_from_rectangle(family, n: int) -> SideMidpointTuple:
    """Recover the side-midpoint tuple from an ordered rectangle circuit.

    The input is the cyclic vertex order (a1, a2, a3, a4) with opposite
    pairs (a1, a3) and (a2, a4) satisfying the rectangle indicator
    relation."""
    quad = tuple(family)
    if len(quad) != 4 or len(set(quad)) != 4:
        raise ValueError("need four distinct masks")
    for m in quad:
        validate_mask(m, n)
    if not _pairwise_intersecting(quad):
        raise ValueError("vertices must be pairwise intersecting")
    a1, a2, a3, a4 = quad
    for e in range(n):
        bit = 1 << e
        if bool(a1 & bit) + bool(a3 & bit) != bool(a2 & bit) + bool(a4 & bit):
            raise ValueError("vertices do not satisfy the rectangle relation")
    mid = a1 & a2 & a3 & a4
    if mid == 0:
        raise ValueError("vertices have empty common intersection")
    sides = tuple(quad[i] & quad[(i + 1) % 4] & ~mid for i in range(4))
    return SideMidpointTuple(sides, mid)


def realize(i: int, images, blocks) -> tuple[int, ...]:
    """The i-tuple of subsets of [n] that an (i, k)-prototype encodes on a
    partition of {1..n+1} into k blocks: the j-th set is the union of the
    blocks at the positions whose image contains j.

    The last block, the one holding n+1, is the leftover and never used.
    """
    if len(images) != len(blocks) - 1:
        raise ValueError(f"{len(blocks)} blocks, but {len(images)} images")
    return tuple(
        sum(block for image, block in zip(images, blocks) if image >> j & 1)
        for j in range(i)
    )


def tuple_prototype(masks, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Inverse of ``realize``: recover (images, blocks) from a tuple of
    pairwise distinct nonempty subsets of [n].

    Elements of {1..n+1} are grouped by the set of tuple positions
    containing them; the groups are the partition blocks and the
    signatures of the non-leftover blocks are the prototype images.
    Tuples spanning fewer than i+1 groups are dependent (their sets live
    in the span of at most i-1 indicator vectors) and have no prototype.
    """
    tup = list(masks)
    if len(set(tup)) != len(tup) or 0 in tup:
        raise ValueError("need pairwise distinct nonempty subsets")
    i = len(tup)
    signatures: dict[int, int] = {}
    for e in range(1, n + 2):
        sig = 0
        for j, m in enumerate(tup):
            if e <= n and m >> (e - 1) & 1:
                sig |= 1 << j
        signatures.setdefault(sig, 0)
        signatures[sig] |= 1 << (e - 1)
    block_of = {blk: sig for sig, blk in signatures.items()}
    blocks = tuple(sorted(block_of))
    if block_of[blocks[-1]] != 0:
        raise InternalCheckError("leftover block is not last in mask order")
    k = len(blocks)
    if k <= i:
        raise ValueError(f"tuple is dependent: only {k} blocks for an {i}-tuple")
    return tuple(block_of[b] for b in blocks[:-1]), blocks
