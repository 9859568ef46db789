"""Broken-circuit complex of the resonance arrangement, binary order.

The f-vector of the complex gives the Betti numbers, so counting
no-broken-circuit sets by cardinality computes characteristic
polynomial coefficients directly.

Enumeration trick: adding hyperplanes in increasing binary order, a set
S extends to an NBC set S + {e} iff e is independent of S and no later
hyperplane f > e enters the closure at e.  Working with residuals
modulo span(S), "f enters the closure at e" means the residuals of f
and e are proportional, so among the later hyperplanes with one
residual direction only the last may be added.  The equivalence of the
incremental rule with the definition is a test obligation, not an
assumption.

A search node is the list of residual directions of the hyperplanes
after max(S), each normalized (``linalg.restrict`` keeps them so) and
held once, at the position of its last copy; zero residuals, the
hyperplanes in span(S), are dropped.  Every member is then an
extension, and a child is the tail after one member, restricted to it.
Dropping an earlier copy loses nothing: equal rows stay equal under
``restrict``, so at every node below it the copy still has a later
twin, which the rule would add instead of it.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations

from .arrangement import CharPoly, run_jobs
from .errors import GUARDS, check_guard
from .linalg import _span_solver, restrict
from .masks import MAX_GROUND_SET, mask_vector, validate_mask


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


def betti_via_nbc(
    n: int, i_max: int, workers: int = 1, cap: dict[int, int] | None = GUARDS["nbc_depth"]
) -> list[int]:
    """Betti numbers b_0 .. b_{i_max} by counting NBC sets per cardinality.

    ``cap`` maps each n from 1 to max(cap) to the deepest search allowed.
    """
    if not 1 <= n <= MAX_GROUND_SET:
        raise ValueError(f"n must be positive and at most {MAX_GROUND_SET}, got {n}")
    if not 0 <= i_max <= n:
        raise ValueError(f"cardinality limit i_max={i_max} outside 0..{n}")
    if cap is not None:
        check_guard("NBC search: n", n, max(cap))
        check_guard(f"NBC search at n={n}: depth", i_max, cap[n])
    counts = [0] * (i_max + 1)
    counts[0] = 1
    if i_max == 0:
        return counts
    jobs = range(1, 1 << n)
    for sub in run_jobs(partial(_count_from_root, n=n, max_depth=i_max), jobs, workers):
        for d in range(1, i_max + 1):
            counts[d] += sub[d]
    return counts


def charpoly_via_nbc(
    n: int, workers: int = 1, cap: dict[int, int] | None = GUARDS["nbc_depth"]
) -> CharPoly:
    """Full characteristic polynomial from the NBC f-vector."""
    return CharPoly.from_betti(betti_via_nbc(n, n, workers=workers, cap=cap))
