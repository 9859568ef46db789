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

from itertools import combinations

from .arrangement import CharPoly, run_jobs
from .errors import GUARDS, check_guard
from .linalg import _normalize_int_row, _span_solver
from .masks import mask_vector, validate_mask

__all__ = [
    "is_broken_circuit",
    "is_nbc",
    "betti_via_nbc",
    "charpoly_via_nbc",
]


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


def betti_via_nbc(
    n: int, i_max: int, workers: int = 1, cap: dict[int, int] | None = GUARDS["nbc_depth"]
) -> list[int]:
    """Betti numbers b_0 .. b_{i_max} by counting NBC sets per cardinality.

    ``cap`` maps each n from 1 to max(cap) to the deepest search allowed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= i_max <= n:
        raise ValueError(f"cardinality limit i_max={i_max} outside 0..{n}")
    if cap is not None:
        check_guard("NBC search: n", n, max(cap))
        check_guard(f"NBC search at n={n}: depth", i_max, cap[n])
    counts = [0] * (i_max + 1)
    counts[0] = 1
    if i_max == 0:
        return counts
    jobs = [(n, i_max, pos) for pos in range((1 << n) - 1)]
    for sub in run_jobs(_count_from_root, jobs, workers):
        for d in range(1, i_max + 1):
            counts[d] += sub[d]
    return counts


def charpoly_via_nbc(
    n: int, workers: int = 1, cap: dict[int, int] | None = GUARDS["nbc_depth"]
) -> CharPoly:
    """Full characteristic polynomial from the NBC f-vector."""
    return CharPoly.from_betti(betti_via_nbc(n, n, workers=workers, cap=cap))
