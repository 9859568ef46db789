"""Matroid, circuit and prototype helpers that only the tests call.

Unlike ``oracles``, these are built on the package's own kernels
(``EchelonBasis``, the span solver, ``is_nbc`` and the prototype and
side-midpoint types), so the tests compare them with ``oracles`` or
with the package's other routes rather than trusting them as references.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from resonance.circuits import SideMidpointTuple
from resonance.errors import InternalCheckError
from resonance.linalg import EchelonBasis, _span_solver
from resonance.masks import mask_vector, validate_mask
from resonance.nbc import is_nbc
from resonance.prototypes import Partition, Prototype


def _validated_masks(masks, n):
    out = list(masks)
    for m in out:
        validate_mask(m, n)
    return out


def _basis_of(masks, n):
    basis = EchelonBasis(n)
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
    rank, solve = _span_solver([mask_vector(m, n) for m in base])
    if rank < len(base):
        raise ValueError("base set is not independent")
    coeffs = solve(mask_vector(e, n))
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
