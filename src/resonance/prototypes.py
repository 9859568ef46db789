"""Prototype census behind the Stirling-combination Betti formulas.

An (i, k)-prototype is an injective map from {1..k-1} to nonempty
subsets of {1..i}.  Together with a partition of {1..n+1} into k blocks
(the block holding n+1 last) it realizes an i-tuple of hyperplane
subsets of [n]; whether that tuple contains a broken circuit depends on
the prototype alone, so counting "functional" prototypes per k and
dividing by i! yields the coefficients c_{i,k} with

    b_i = sum_k c_{i,k} * S(n+1, k).

A prototype whose realized sets collide or come out empty never encodes
a tuple of i distinct nonempty subsets, so it is classified broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import permutations
from math import factorial, perm

from .errors import GuardExceeded, InternalCheckError
from .nbc import is_nbc
from .stirling import StirlingCombination, stirling2

__all__ = [
    "Prototype",
    "Partition",
    "PrototypeClass",
    "enumerate_prototypes",
    "prototype_count",
    "partitions_into_blocks",
    "singleton_partition",
    "realize",
    "classify",
    "coefficients",
    "betti_via_prototypes",
    "tuple_prototype",
    "PROTOTYPE_INDEX_CAP",
    "PROTOTYPE_STREAM_LIMIT",
]

PROTOTYPE_INDEX_CAP = 3          # full enumeration for all k
PROTOTYPE_STREAM_LIMIT = 10**6   # i = 4 allowed per k while under this many maps


@dataclass(frozen=True)
class Prototype:
    """Injective map {1..k-1} -> nonempty subsets of {1..i} (as masks)."""

    width: int        # i, the length of realized tuples
    block_count: int  # k
    images: tuple[int, ...]

    def __post_init__(self):
        i, k = self.width, self.block_count
        if not (i >= 1 and i + 1 <= k <= 2**i):
            raise ValueError(f"need i+1 <= k <= 2^i, got i={i}, k={k}")
        if len(self.images) != k - 1:
            raise ValueError(f"expected {k - 1} images, got {len(self.images)}")
        if len(set(self.images)) != len(self.images):
            raise ValueError("map must be injective")
        for m in self.images:
            if not 1 <= m < 2**i:
                raise ValueError(f"image {m} is not a nonempty subset of [{i}]")

    def building_blocks(self) -> tuple[int, ...]:
        """For each j in 1..i the mask of positions whose image contains j."""
        blocks = []
        for j in range(self.width):
            m = 0
            for pos, img in enumerate(self.images):
                if img >> j & 1:
                    m |= 1 << pos
            blocks.append(m)
        return tuple(blocks)


@dataclass(frozen=True)
class Partition:
    """Partition of {1..size} into nonempty blocks, ascending mask order."""

    size: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        union = 0
        for b in self.blocks:
            if b <= 0:
                raise ValueError("blocks must be nonempty")
            if union & b:
                raise ValueError("blocks must be disjoint")
            union |= b
        if union != (1 << self.size) - 1:
            raise ValueError("blocks must cover the ground set")
        if list(self.blocks) != sorted(self.blocks):
            raise ValueError("blocks must be in ascending mask order")

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def prototype_count(i: int, k: int) -> int:
    """Number of (i, k)-prototypes: injections into 2^i - 1 subsets."""
    return perm(2**i - 1, k - 1)


def _check_prototype_guard(i, k, cap, stream_limit):
    if cap is not None and i > cap:
        if i == cap + 1 and stream_limit is not None:
            if prototype_count(i, k) <= stream_limit:
                return
        raise GuardExceeded(
            f"prototype enumeration for (i={i}, k={k}) exceeds guards "
            f"({prototype_count(i, k)} maps)"
        )


def enumerate_prototypes(i: int, k: int, cap: int | None = PROTOTYPE_INDEX_CAP,
                         stream_limit: int | None = PROTOTYPE_STREAM_LIMIT):
    """Yield every (i, k)-prototype once, lexicographic in the image tuple."""
    if not (i >= 1 and i + 1 <= k <= 2**i):
        raise ValueError(f"need i+1 <= k <= 2^i, got i={i}, k={k}")
    _check_prototype_guard(i, k, cap, stream_limit)
    for images in permutations(range(1, 2**i), k - 1):
        yield Prototype(i, k, images)


def partitions_into_blocks(size: int, k: int):
    """All partitions of {1..size} into exactly k blocks, canonical order."""
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
                yield Partition(size, tuple(sorted(blocks)))
            return
        for lab in range(min(used + 1, k)):
            assignment[pos] = lab
            yield from rec(pos + 1, max(used, lab + 1))

    yield from rec(0, 0)


def singleton_partition(k: int) -> Partition:
    return Partition(k, tuple(1 << j for j in range(k)))


def realize(proto: Prototype, part: Partition) -> tuple[int, ...]:
    """The tuple of subsets of [n] encoded by a prototype and a partition.

    n is part.size - 1; the final block (the one holding the top
    element) is the leftover and is never used.
    """
    if part.block_count != proto.block_count:
        raise ValueError(
            f"partition has {part.block_count} blocks, prototype wants {proto.block_count}"
        )
    out = []
    for bb in proto.building_blocks():
        m = 0
        for pos in range(proto.block_count - 1):
            if bb >> pos & 1:
                m |= part.blocks[pos]
        out.append(m)
    top = 1 << (part.size - 1)
    if any(m & top for m in out):
        raise InternalCheckError("realized set touches the reserved top element")
    return tuple(out)


class PrototypeClass(Enum):
    FUNCTIONAL = "functional"
    BROKEN = "broken"


def classify(proto: Prototype) -> PrototypeClass:
    """Broken iff the realized tuple cannot sit inside the NBC complex.

    Uses the all-singletons partition of [k]; partition independence of
    the answer is a tested property.  Realizations with a repeated or
    empty set are broken: they never produce a tuple of distinct
    nonempty subsets for any partition.
    """
    realized = realize(proto, singleton_partition(proto.block_count))
    if 0 in realized or len(set(realized)) != len(realized):
        return PrototypeClass.BROKEN
    if is_nbc(realized, proto.block_count - 1):
        return PrototypeClass.FUNCTIONAL
    return PrototypeClass.BROKEN


@lru_cache(maxsize=None)
def _functional_counts(i: int) -> tuple[tuple[int, int], ...]:
    counts = []
    for k in range(i + 1, 2**i + 1):
        functional = sum(
            1
            for p in enumerate_prototypes(i, k, cap=None)
            if classify(p) is PrototypeClass.FUNCTIONAL
        )
        counts.append((k, functional))
    return tuple(counts)


def coefficients(i: int, cap: int | None = PROTOTYPE_INDEX_CAP) -> StirlingCombination:
    """The Stirling coefficients for Betti index i by full prototype census."""
    if i < 1:
        raise ValueError(f"Betti index i must be positive, got i={i}")
    if cap is not None and i > cap:
        raise GuardExceeded(f"coefficient census capped at i={cap} (asked i={i})")
    coeffs = {}
    for k, functional in _functional_counts(i):
        q, r = divmod(functional, factorial(i))
        if r:
            raise InternalCheckError(
                f"functional count {functional} for (i={i}, k={k}) not divisible by {i}!"
            )
        if q:
            coeffs[k] = q
    return StirlingCombination(i, coeffs)


def betti_via_prototypes(i: int, n: int, cap: int | None = PROTOTYPE_INDEX_CAP) -> int:
    """b_i(A_n) assembled from the prototype census."""
    return sum(c * stirling2(n + 1, k) for k, c in coefficients(i, cap=cap).coefficients.items())


def tuple_prototype(masks, n: int) -> tuple[Prototype, Partition]:
    """Inverse construction: recover (prototype, partition) from a tuple
    of pairwise distinct nonempty subsets of [n].

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
    blocks = sorted(block_of)
    if block_of[blocks[-1]] != 0:
        raise InternalCheckError("leftover block is not last in mask order")
    k = len(blocks)
    if k <= i:
        raise ValueError(f"tuple is dependent: only {k} blocks for an {i}-tuple")
    part = Partition(n + 1, tuple(blocks))
    images = tuple(block_of[b] for b in blocks[:-1])
    return Prototype(i, k, images), part
