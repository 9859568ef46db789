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

from .errors import InternalCheckError
from .stirling import stirling2

__all__ = [
    "SideMidpointTuple",
    "count_intersecting_triples",
    "count_tetrahedron_circuits",
    "tetrahedron_circuits",
    "rectangle_from_sides",
    "side_midpoint_tuples",
    "count_rectangle_circuits",
    "rectangle_circuit_families",
    "b3_via_circuits",
    "partitions_into_blocks",
]


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
