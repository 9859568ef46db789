"""Broken-circuit complex of the resonance arrangement, binary order.

The f-vector of the complex gives the Betti numbers, so counting
no-broken-circuit sets by cardinality computes characteristic
polynomial coefficients directly.

Enumeration trick: adding hyperplanes in increasing binary order, a set
S extends to an NBC set S + {e} iff e is independent of S and no later
hyperplane f > e enters the closure at e.  Working with residuals
modulo span(S), "f enters the closure at e" means the residuals of f
and e are proportional, so at every search node the candidates are
grouped by normalized residual direction and only the largest member of
each group may be added.  The equivalence of the incremental rule with
the definition is a test obligation, not an assumption.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations

from .arrangement import CharPoly
from .errors import GuardExceeded
from .linalg import EchelonBasis, _normalize_int_row, _span_solver
from .masks import mask_vector, validate_mask

__all__ = [
    "NbcSet",
    "is_broken_circuit",
    "is_nbc",
    "nbc_extend",
    "betti_via_nbc",
    "charpoly_via_nbc",
    "NBC_FULL_CAP",
    "NBC_DEPTH_CAP",
]

NBC_FULL_CAP = 6           # full-depth search
NBC_DEPTH_CAP = (7, 4)     # (max n, max cardinality) for depth-limited runs


def is_broken_circuit(masks, n: int) -> bool:
    """True iff some hyperplane above max(masks) closes the set to a circuit."""
    given = list(masks)
    T = sorted(set(given))
    if not T:
        raise ValueError("broken circuits are nonempty")
    for m in T:
        validate_mask(m, n)
    if len(T) != len(given):
        raise ValueError("elements must be distinct")
    rank, solve = _span_solver([mask_vector(m, n) for m in T])
    if rank < len(T):
        return False
    for h in range(T[-1] + 1, 1 << n):
        coeffs = solve(mask_vector(h, n))
        if coeffs is not None and all(coeffs):
            return True
    return False


def is_nbc(masks, n: int) -> bool:
    """True iff no subset is a broken circuit.

    Two-element broken circuits are exactly the disjoint pairs (the only
    three-element circuits are {A, B, A+B} for disjoint A, B), which the
    mask intersection test settles without linear algebra; larger
    subsets go through the generic circuit search.
    """
    given = list(masks)
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


def nbc_extend(masks, e: int, n: int) -> bool:
    """Incremental test: does appending e keep the set NBC?

    Requires e above the current maximum and the input already NBC.
    """
    S = sorted(masks)
    validate_mask(e, n)
    if S and e <= S[-1]:
        raise ValueError("new element must exceed the current maximum")
    old = EchelonBasis(n)
    old.add_masks(S, n)
    new = old.copy()
    if not new.add(mask_vector(e, n)):
        return False
    for f in range(e + 1, 1 << n):
        fv = mask_vector(f, n)
        if new.contains(fv) and not old.contains(fv):
            return False
    return True


def _reduced_tail(cands, res):
    """One elimination step of every candidate residual against ``res``."""
    p = next(j for j, x in enumerate(res) if x)
    a = res[p]
    out = []
    for mask, v in cands:
        if v is None:
            out.append((mask, None))
            continue
        c = v[p]
        if c:
            v = _normalize_int_row([a * x - c * y for x, y in zip(v, res)])
        out.append((mask, v))
    return out


def _dfs(cands, depth, max_depth, counts):
    last = {}
    for pos, (_, res) in enumerate(cands):
        if res is not None:
            last[res] = pos
    for pos, (_, res) in enumerate(cands):
        if res is None or last[res] != pos:
            continue
        counts[depth + 1] += 1
        if depth + 1 < max_depth:
            _dfs(_reduced_tail(cands[pos + 1 :], res), depth + 1, max_depth, counts)


def _root_candidates(n):
    return [(m, mask_vector(m, n)) for m in range(1, 1 << n)]


def _count_from_root(args):
    n, max_depth, root_pos = args
    cands = _root_candidates(n)
    counts = [0] * (max_depth + 1)
    counts[1] = 1
    if max_depth > 1:
        _, res = cands[root_pos]
        _dfs(_reduced_tail(cands[root_pos + 1 :], res), 1, max_depth, counts)
    return counts


def _check_depth_guard(n, i_max, cap_full, cap_depth):
    if not 0 <= i_max <= n:
        raise ValueError(f"cardinality limit i_max={i_max} outside 0..{n}")
    if cap_full is not None and n <= cap_full:
        return
    if cap_depth is not None:
        cap_n, cap_i = cap_depth
        if n <= cap_n and i_max <= cap_i:
            return
    if cap_full is None and cap_depth is None:
        return
    raise GuardExceeded(
        f"NBC search for n={n}, depth {i_max} exceeds guards "
        f"(full<=n={cap_full}, depth-limited<={cap_depth})"
    )


def betti_via_nbc(
    n: int,
    i_max: int,
    workers: int = 1,
    cap_full: int | None = NBC_FULL_CAP,
    cap_depth: tuple[int, int] | None = NBC_DEPTH_CAP,
) -> list[int]:
    """Betti numbers b_0 .. b_{i_max} by counting NBC sets per cardinality."""
    _check_depth_guard(n, i_max, cap_full, cap_depth)
    counts = [0] * (i_max + 1)
    counts[0] = 1
    if i_max == 0:
        return counts
    if workers <= 1:
        cands = _root_candidates(n)
        _dfs(cands, 0, i_max, counts)
        return counts
    jobs = [(n, i_max, pos) for pos in range((1 << n) - 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for sub in pool.map(_count_from_root, jobs, chunksize=8):
            for d in range(1, i_max + 1):
                counts[d] += sub[d]
    return counts


def charpoly_via_nbc(n: int, workers: int = 1, cap: int | None = NBC_FULL_CAP) -> CharPoly:
    """Full characteristic polynomial from the NBC f-vector."""
    if cap is not None and n > cap:
        raise GuardExceeded(f"full-depth NBC search capped at n={cap} (asked n={n})")
    betti = betti_via_nbc(n, n, workers=workers, cap_full=None, cap_depth=None)
    return CharPoly.from_betti(betti)
