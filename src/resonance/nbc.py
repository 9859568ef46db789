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

The search runs over F_p, p the smallest prime above the Hadamard
bound floor((k+1)^((k+1)/2) / 2^k) on a k x k 0/1 determinant (p = 2,
2, 3, 5, 7, 17, 37, 79 for k = 1..8).  A 0/1 minor of size at most k
is at most that bound in absolute value, so it is nonzero mod p exactly
when it is nonzero over Q, and normals of rank at most k over Q have
the same rank over F_p.  Independence of S + {e} and "the residuals of
e and f are proportional" (rank(S + {e, f}) = |S| + 1) are rank
conditions on at most |S| + 2 normals.  A search to depth d forms sets
S + {e} of at most d members, so it reads ranks of at most d + 1
normals, and no rank exceeds n: k = min(d + 1, n) changes no count.
Every search to depth 4 runs at p <= 7; full depth at n = 7 and 8 takes
p = 37 and 79.  The prime is computed here, not read from
``arrangement.MAX_01_DETERMINANT``, so this route and the point count
share no table.

A search node is the list of residual directions of the hyperplanes
after max(S): rows mod p, each scaled to a leading 1 and held once, at
the position of its last copy.  Every member is then an extension, and
a child is the tail after one member, restricted to it: row j becomes
row_j - row_j[q] * row_pos, for q the leading position of row_pos, and
is scaled to a leading 1 again.  No row is ever zero, by induction on
|S|: at the root, distinct 0/1 vectors are never proportional, and a
hyperplane after e in the span of S + {e} but not of S had e's
direction at the node of S, where e is held only as the last copy of
its direction.  Dropping an earlier copy loses nothing: equal rows stay
equal under that step, so at every node below it the copy still has a
later twin, which the rule would add instead.

A block is the concatenated lists of a group of sibling nodes at one
depth, with the length of each list.  One expansion forms the child
rows of all of its pairs pos < j at once, in a few numpy passes over
whole arrays.  A row has 8 columns whatever n is (zero past n), so its
nonzero flags are one int64, whose lowest set bit gives its leading
position.  Its lanes are int8 when p * p - 1 < 128 (p <= 11, so every
search to depth 4) and int16 above, so its entries are one or two
int64 words, which one multiplication scales.  The restriction is
row_j + (p - row_j[q]) * row_pos, whose lanes stay in 0 .. p^2 - 1:
never negative, so whole words add and nothing borrows, and one
reduction mod p follows.  A child row's key holds its entries and, in
its high bits, its parent row's index, so equal keys are equal
directions in one child list.  An int8 row's entries are below 16, so
its word w folds to the 32 bits of w | w >> 28; int16 entries are
base-p digits under the parent's index times p^n.  The last copy of
each key is kept, in order, which is the rule above.  The kept rows
are cut, at node boundaries, into blocks of about ``_BLOCK_PAIRS``
pairs for the next depth.  One job per root hyperplane goes through
``run_jobs`` and the counts are summed, so neither the block cuts nor
the worker count change them.

The children of nodes at depth max - 2 are only counted, and a level
that is only counted never needs to know where its kept rows sit: it
sorts its keys in place and counts the distinct ones.  ``parents``
gives each pair's first row, and pairs come by that row, so it
ascends; its distinct values, counted the same way without a sort, are
the child nodes that the kept rows fall in, since every parent keeps
the last copy of one of its keys.

At full depth the last level is not formed either.  A node of a set S
with |S| = n - 2 holds rows in the 2-dimensional space modulo span(S),
and a child of its pair (pos, j) holds rows in the 1-dimensional space
modulo span(S + {pos}).  No row is zero, so every row of that child is
the one direction of the line, scaled to a leading 1: its key is the
same for every j, and the last copy leaves one row.  So a row of a
node at depth n - 2 with a later row in its node makes exactly one NBC
set of size n, and a node of s rows makes s - 1 of them.  The count of
size n is the number of kept rows at depth n - 2 less the number of
nodes they fall in, and that level is only counted too.
"""

from __future__ import annotations

from functools import partial
from math import isqrt

import numpy as np

from .arrangement import CharPoly, _is_prime, run_jobs
from .errors import GUARDS, check_guard


# Pairs one block step expands, about; a block ends at a node boundary,
# so one large node may take it past this.  Measured in one process on a
# 2-core shared box (Python 3.11.7, numpy 2.4.6): the fastest of 10
# runs of b_4(A_7) (int8 rows, p = 7) and chi(A_6) (int16 rows, p = 17)
# at 1 worker, and the traced heap peak of chi(A_6).  The heap that the
# `betti7` workload holds at its end, which its peak RSS includes, was
# measured on int16 rows, before each depth had its prime:
#
#   pairs  b_4(A_7)  chi(A_6)  heap peak  betti7 heap
#    1000   331 ms    107 ms    166 kB     5828 kB
#    2000   196        77       268        5828
#    3000   181        72       369        5828
#    4000   176        71       480        5828
#    5000   168        66       574        5924
#    6000   170        69       680        5964
#    8000   193        65       881        6076
#
# Past 4000 pairs the time falls by a few percent at most, within the
# box's noise, and the heap grows.
_BLOCK_PAIRS = 4000
# Largest n searched: a row has this many columns whatever n is, zero
# past n, and ``_leads``, ``_scale`` and the int8 key read it as whole
# int64 words.  The key does not stop n = 9 by itself: a search to depth
# 2 has p = 3 there.  At full depth it would, with p = 197, whose p^9 is
# past 2^63 and whose p^2 is past int16.  At n = 8 a base-p key needs
# p^n times the rows of its block below 2^63: 79^8 ~ 1.5e15 allows 6080
# rows.
_MAX_N = 8


def _nbc_prime(n: int) -> int:
    """The smallest prime above the Hadamard bound on n x n 0/1 determinants."""
    q = (isqrt((n + 1) ** (n + 1)) >> n) + 1
    while not _is_prime(q):
        q += 1
    return q


class _Field:
    """Arithmetic mod the prime of a search of A_n to ``depth``, on rows
    padded with zeros to ``_MAX_N`` columns: int8 lanes, one int64 word a
    row, when p * p - 1 < 128, and int16 lanes, two words, above."""

    def __init__(self, n: int, depth: int):
        p = self.p = _nbc_prime(min(depth + 1, n))
        self.n = n
        self.dtype = np.int8 if p * p - 1 < 128 else np.int16
        self.inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=self.dtype)
        # A block starts its last node below this row, so it holds fewer
        # rows than the parent's place in a key allows: 2^31 above the
        # folded word, 2^63 / p^n above the base-p digits.
        limit = 1 << 31 if self.dtype == np.int8 else (1 << 63) // p**n
        self.max_rows = limit - (1 << n)

    def mod(self, t):
        """Reduce ``t`` into 0 .. p-1 in place (``//`` is several times
        faster than ``%`` on int8 and int16)."""
        q = t // self.p
        q *= self.p
        t -= q
        return t

    def key(self, rows, parents):
        """One int64 per row, equal for two rows of one parent exactly when
        the rows are equal, and ascending with the parent.  An int8 row is
        one word w whose entries are below 16, so ``w | w >> 28`` holds all
        eight in its low 32 bits, under the parent's index.  An int16 row
        is its n entries as base-p digits, plus the parent's index times
        p^n."""
        if self.dtype == np.int8:
            word = rows.view(np.int64).ravel()
            key = word >> 28
            key |= word
            key &= 0xFFFFFFFF
            key |= parents << 32
            return key
        key = rows[:, 0].astype(np.int64)
        for j in range(1, self.n):
            key *= self.p
            key += rows[:, j]
        key += parents * self.p**self.n
        return key


def _leads(rows):
    """For each nonzero row, 1 + the position of its first nonzero entry.
    The row's 8 nonzero flags, read as one little-endian int64 x, have
    their lowest set bit at 8 * position; x ^ (x - 1) sets every bit up to
    it, and the mask keeps one bit per entry."""
    x = rows.astype(bool).view("<i8").ravel()
    x ^= x - 1
    x &= 0x0101010101010101
    return np.bitwise_count(x)


def _scale(rows, factors):
    """Multiply each row by its factor, in place.  An int64 word holds
    eight int8 or four int16 entries, and the callers keep every product
    below its lane's sign bit, so the word times the factor is the
    products.  numpy then makes one pass per word column, not one short
    loop per row."""
    words = rows.view(np.int64).T
    np.multiply(words, factors.astype(np.int64), out=words, order="C")


def _children(f, rows, parents, tails):
    """Each ``rows[tails[k]]`` restricted to ``rows[parents[k]]`` and
    scaled to a leading 1, and its key (``_Field.key``).  No result is
    zero: the rows of a node are distinct directions, so none is a
    multiple of another.

    For c the tail's entry at the parent's leading position, the tail
    less c times the parent is, mod p, the tail plus (p - c) times the
    parent.  Its entries are at most p - 1 + (p - 1) * p = p^2 - 1, which
    fits an int8 lane for p <= 11 and an int16 lane for p <= 181: no
    lane is negative or carries, so whole words add.
    """
    # Where each child row starts in new.ravel(), less the 1 that _leads adds.
    at = np.arange(-1, _MAX_N * len(tails) - 1, _MAX_N)
    new, head = rows.take(tails, 0), rows.take(parents, 0)
    _scale(head, f.p - new.ravel().take(at + _leads(rows).take(parents)))
    new += head
    # Spent temporaries go at once: a block's peak memory bounds _BLOCK_PAIRS.
    del head
    at += _leads(f.mod(new))
    _scale(new, f.inverse.take(new.ravel().take(at)))
    del at
    return new, f.key(f.mod(new), parents)


def _last_copies(keys):
    """Ascending positions of the last copy of each key.  A stable sort
    keeps each run of equal keys in position order, so the last copy ends
    its run."""
    order = keys.argsort(kind="stable")
    step = keys.take(order)
    step[:-1] -= step[1:]  # numpy reads the overlapping operand as a copy
    step[-1:] = 1  # a run ends at the last key, and at every nonzero step
    last = order.take(step.nonzero()[0])
    last.sort()
    return last


def _distinct(ascending):
    """Number of distinct values in an ascending array: 0 when it is empty
    (the last root's block is).  ``np.diff(a, prepend=-1)`` counts the
    same, but its prepend costs 8 us a call, and a small search makes
    thousands of calls."""
    return int(np.count_nonzero(ascending[1:] - ascending[:-1])) + (len(ascending) > 0)


def _pairs(sizes):
    """(pos, j) row indices of every pair pos < j inside one node of a
    block whose nodes hold ``sizes`` rows, by pos and then j.  Row i has
    later[i] rows after it, up to the end ends[i] of its node; its pairs
    are the k in stops[i] - later[i] .. stops[i] - 1, for stops the
    running sum of later, with j = k + ends[i] - stops[i].  It calls
    array methods: each numpy module function adds a Python call."""
    ends = sizes.cumsum().repeat(sizes)
    rows = np.arange(len(ends))
    later = ends - rows
    later -= 1
    ends -= later.cumsum()
    j = ends.repeat(later)
    j += np.arange(len(j))
    return rows.repeat(later), j


def _blocks(f, rows, sizes):
    """Cut the nodes of ``rows`` into blocks of about ``_BLOCK_PAIRS`` pairs."""
    starts = sizes.cumsum() - sizes
    pairs = sizes * (sizes - 1) // 2
    group = (pairs.cumsum() - pairs) // _BLOCK_PAIRS + starts // f.max_rows
    cuts = ((group[1:] - group[:-1]).nonzero()[0] + 1).tolist()
    edges = [0, *starts.take(cuts).tolist(), len(rows)]
    cuts = [0, *cuts, len(sizes)]
    for lo, hi, first, last in zip(cuts, cuts[1:], edges, edges[1:]):
        yield rows[first:last], sizes[lo:hi]


def _expand(f, rows, parents, tails, depth, max_depth, counts):
    """Count the NBC sets below the children of the pairs of a block.

    ``rows`` are the lists of nodes at ``depth``; a pair's child is a
    node at depth + 1, whose list is its tail rows restricted to it.
    """
    new, keys = _children(f, rows, parents, tails)
    full = depth + 3 == max_depth == f.n
    if full or depth + 2 == max_depth:
        # Count-only level: the kept rows are the distinct keys, and the
        # nodes they fall in are the distinct values of the ascending
        # ``parents`` (module docstring).  The in-place sort adds 256 kB
        # to the peak RSS the first time it runs; a stable sort adds 64 kB
        # but took 7x as long on 2000 keys.
        keys.sort()
        kept = _distinct(keys)
        counts[depth + 2] += kept
        if full:
            counts[max_depth] += kept - _distinct(parents)
        return
    kept = _last_copies(keys)
    counts[depth + 2] += len(kept)
    parents = parents.take(kept)
    sizes = np.bincount(parents, minlength=len(rows))
    # Nodes of one row have no pairs; their row is counted above.  The
    # kernel makes no comparisons (size // 2 picks the others): numpy's
    # comparison code alone would add 130 kB to the peak RSS.
    new = new.take(kept.take((sizes.take(parents) // 2).nonzero()[0]), 0)
    sizes = sizes.take((sizes // 2).nonzero()[0])
    # Free this level's pair arrays before descending: it lowers peak RSS.
    del parents, tails, keys, kept
    for block, block_sizes in _blocks(f, new, sizes):
        _expand(f, block, *_pairs(block_sizes), depth + 1, max_depth, counts)


def _count_from_root(root, f, max_depth):
    """NBC sets per cardinality of A_{f.n} whose least hyperplane is ``root``."""
    counts = [0] * (max_depth + 1)
    counts[1] = 1
    if max_depth > 1:
        # The root and the later hyperplanes: 0/1 rows, leading entry 1.
        rows = (np.arange(root, 1 << f.n)[:, None] >> np.arange(_MAX_N) & 1).astype(f.dtype)
        tails = np.arange(1, len(rows))
        _expand(f, rows, np.zeros_like(tails), tails, 0, max_depth, counts)
    return counts


def betti_via_nbc(
    n: int, i_max: int, workers: int = 1, cap: dict[int, int] | None = GUARDS["nbc_depth"]
) -> list[int]:
    """Betti numbers b_0 .. b_{i_max} by counting NBC sets per cardinality.

    ``cap`` maps each n from 1 to max(cap) to the deepest search allowed.
    """
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"n must be positive and at most {_MAX_N}, got {n}: "
                         f"the NBC search runs to n = {_MAX_N}, where a row has {_MAX_N} columns")
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
    count = partial(_count_from_root, f=_Field(n, i_max), max_depth=i_max)
    for sub in run_jobs(count, jobs, workers):
        for d in range(1, i_max + 1):
            counts[d] += sub[d]
    return counts


def charpoly_via_nbc(
    n: int, workers: int = 1, cap: dict[int, int] | None = GUARDS["nbc_depth"]
) -> CharPoly:
    """Full characteristic polynomial from the NBC f-vector."""
    return CharPoly.from_betti(betti_via_nbc(n, n, workers=workers, cap=cap))
