"""Census of the four-element circuits feeding the third Betti number.

b_3 counts pairwise-intersecting triples that are not broken circuits.
The broken triples split into those completing to a "tetrahedron"
relation (three indicators summing to twice a fourth) and those
completing to a "rectangle" relation (two opposite pairs with equal
indicator sums), so

    b_3(A_n) = intersecting triples - tetrahedra - rectangles.

Rectangles are counted through side-midpoint tuples: four pairwise
disjoint sides plus a nonempty midpoint, with at most one empty side in
each opposite pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .errors import InternalCheckError
from .masks import validate_mask
from .prototypes import partitions_into_blocks
from .stirling import stirling2

__all__ = [
    "CircuitTag",
    "CircuitType",
    "SideMidpointTuple",
    "count_intersecting_triples",
    "classify_relevant_4circuit",
    "count_tetrahedron_circuits",
    "tetrahedron_circuits",
    "rectangle_from_sides",
    "sides_from_rectangle",
    "side_midpoint_tuples",
    "count_rectangle_circuits",
    "rectangle_circuit_families",
    "b3_via_circuits",
]


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


def count_intersecting_triples(n: int) -> int:
    """Families of three distinct subsets of [n], pairwise intersecting.

    Evaluated through both the exponential formula and its Stirling
    expansion; they must agree.
    """
    if n < 1:
        raise ValueError("n must be positive")
    num = 8**n - 3 * 6**n + 3 * 5**n - 4 * 4**n + 3 * 3**n + 2 * 2**n - 2
    via_powers, rem = divmod(num, 6)
    via_stirling = (
        13 * stirling2(n + 1, 4)
        + 92 * stirling2(n + 1, 5)
        + 360 * stirling2(n + 1, 6)
        + 840 * stirling2(n + 1, 7)
        + 840 * stirling2(n + 1, 8)
    )
    if rem or via_powers != via_stirling:
        raise InternalCheckError(
            f"triple-count expressions disagree at n={n}: {via_powers} vs {via_stirling}"
        )
    return via_powers


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


def tetrahedron_circuits(n: int):
    """Yield each tetrahedron circuit once, as a frozenset of four masks.

    A partition of [n+1] into four blocks, with the block holding n+1
    last, maps to the circuit whose top set collects the first three
    blocks and whose other sets each drop one block.
    """
    for part in partitions_into_blocks(n + 1, 4):
        top_block = part.blocks[3]
        a4 = ((1 << (n + 1)) - 1) & ~top_block
        family = [a4 & ~part.blocks[i] for i in range(3)] + [a4]
        yield frozenset(family)


def count_tetrahedron_circuits(n: int) -> int:
    """S(n+1, 4); cross-checked against explicit enumeration for n <= 5."""
    if n < 1:
        raise ValueError("n must be positive")
    value = stirling2(n + 1, 4)
    if n <= 5:
        families = set(tetrahedron_circuits(n))
        if len(families) != value:
            raise InternalCheckError(
                f"tetrahedron enumeration found {len(families)}, formula says {value}"
            )
    return value


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


def count_rectangle_circuits(n: int) -> int:
    """3*S(n+1,4) + 12*S(n+1,5) + 15*S(n+1,6) rectangle circuits.

    For n <= 4 the formula is checked against exhaustive side-midpoint
    enumeration (labeled tuples collapse onto circuits)."""
    if n < 1:
        raise ValueError("n must be positive")
    value = (
        3 * stirling2(n + 1, 4) + 12 * stirling2(n + 1, 5) + 15 * stirling2(n + 1, 6)
    )
    if n <= 4:
        families = rectangle_circuit_families(n)
        if len(families) != value:
            raise InternalCheckError(
                f"rectangle enumeration found {len(families)}, formula says {value}"
            )
    return value


def b3_via_circuits(n: int) -> int:
    """Third Betti number assembled from the circuit census."""
    return (
        count_intersecting_triples(n)
        - count_tetrahedron_circuits(n)
        - count_rectangle_circuits(n)
    )
