"""Exact rank, span and pivot computations on integer matrices.

One elimination kernel serves every general job: ``EchelonBasis``, an
incrementally built, fully reduced integer row basis.  Rank and span
membership read it directly.  Coefficients read one basis of the rows
v_i | e_i (``_augmented_rows``), whose e-block carries them: the closing
points (the 0/1 points of a span whose coefficients are all nonzero) are
integer subset sums of its rows, and ``integer_coefficients`` solves a
target over independent vectors with one weighted sum of the same rows.
``restrict`` is its row-update step on its own: it restricts a list of
integer normals to the hyperplane with normal ``h``.  The region
recursion calls it once per memo miss, on the batch of normals its
restriction table lacks; it forms no row update of its own.
``ExactMatrix.pivot`` is the one other elimination step; it replays the
pivots an embedding certificate prescribes, each on an entry equal to 1.
Everything here is in ints: no float and no rational.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import index


def _normalize_int_row(row):
    """Divide out the gcd and make the leading nonzero entry positive.

    Returns None for the zero row.  Proportional rows normalize to the
    same tuple, which is what closure-delta grouping relies on.
    """
    g = gcd(*row)
    if not g:
        return None
    if next(filter(None, row)) < 0:
        g = -g
    elif g == 1:
        return tuple(row)
    return tuple([x // g for x in row])


def restrict(rows, h):
    """Eliminate the pivot of the normalized row ``h`` from every row.

    The pivot is the first nonzero position p of ``h``.  A row with a
    nonzero entry at p becomes ``h[p] * row - row[p] * h``, normalized,
    and is dropped when that is zero (the row was proportional to h);
    a row that is zero at p comes back as the same tuple.  The order is
    kept.  Every result is zero at p, so equal rows stay equal and
    normalized rows stay normalized.
    """
    a = next(filter(None, h))
    p = h.index(a)
    out = []
    for v in rows:
        c = v[p]
        if c:
            v = _normalize_int_row([a * x - c * y for x, y in zip(v, h)])
            if v is None:
                continue
        out.append(v)
    return out


class EchelonBasis:
    """Incrementally built, fully reduced integer row basis.

    Every stored row is gcd-normalized and zero at every other row's
    pivot position, so reducing a vector is a single pass and membership
    in the span is "residual == 0".  Kept exact via fraction-free row
    operations; entries stay tiny for 0/1 inputs.
    """

    __slots__ = ("_rows", "_pivots")

    def __init__(self):
        self._rows: list[tuple[int, ...]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def residual(self, vec) -> tuple[int, ...]:
        """Eliminate all pivot positions from ``vec`` (fraction-free)."""
        v = list(vec)
        for p, row in zip(self._pivots, self._rows):
            c = v[p]
            if c:
                a = row[p]
                v = [a * x - c * y for x, y in zip(v, row)]
        return tuple(v)

    def add(self, vec) -> bool:
        """Extend the span by ``vec``; False if it was already contained."""
        res = _normalize_int_row(self.residual(vec))
        if res is None:
            return False
        # The stored rows are independent of res, so restrict drops none.
        self._rows = restrict(self._rows, res)
        self._rows.append(res)
        self._pivots.append(next(j for j, x in enumerate(res) if x))
        return True


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix, by an ``EchelonBasis``.

    The historical name stays because callers and the spans in
    ``perfbench/`` bind it.
    """
    basis = EchelonBasis()
    for row in rows:
        basis.add(row)
    return basis.rank


def _augmented_rows(vectors):
    """``(L, rows)`` for the integer ``vectors`` v_1 .. v_k; both are None
    when the vectors are dependent.

    One basis holds the rows ``v_i | e_i``; the e-block of any combination
    of them is its coefficients over the v_i.  The vectors are dependent
    iff some row pivots in the e-block.  Otherwise every vector t of their
    span is sum t[p_j] / a_j * r_j, for r_j the row of pivot p_j and
    a_j = r_j[p_j] > 0.  ``rows`` pairs each p_j with (L / a_j) * r_j, for
    L = lcm a_j, so that sum t[p_j] * (L / a_j) * r_j stays in ints and
    is L * (t | c), c the coefficients of t.
    """
    k = len(vectors)
    size = len(vectors[0]) if vectors else 0
    basis = EchelonBasis()
    for i, v in enumerate(vectors):
        basis.add(list(v) + [0] * i + [1] + [0] * (k - 1 - i))
    if any(p >= size for p in basis._pivots):
        return None, None
    scale = lcm(*(row[p] for p, row in zip(basis._pivots, basis._rows)))
    return scale, [(p, [scale // row[p] * x for x in row])
                   for p, row in zip(basis._pivots, basis._rows)]


def _closing_points(vectors):
    """The 0/1 points of the span of integer ``vectors`` whose coefficients
    over them are all nonzero, as tuples, in no fixed order; none when the
    vectors are dependent.  With two or more vectors these are the points
    p for which ``vectors + [p]`` is a circuit.

    A 0/1 point p of the span is L * (p | c) = the sum of the scaled rows
    of ``_augmented_rows`` at the pivots where p is 1, so the closing
    points are the 2^k - 1 subset sums whose v-block entries are all 0
    or L and whose e-block has no zero.
    """
    scale, rows = _augmented_rows(vectors)
    if rows is None:
        return []
    size = len(vectors[0]) if vectors else 0
    sums = [[0] * (size + len(vectors))]
    for _, row in rows:
        sums += [[x + y for x, y in zip(s, row)] for s in sums]
    ends = {0, scale}
    return [tuple(x // scale for x in s[:size]) for s in sums[1:]
            if ends.issuperset(s[:size]) and all(s[size:])]


def integer_coefficients(vectors, target):
    """The integers c with sum c_i * vectors[i] == target, or None when
    the integer ``vectors`` are dependent or no such integers exist; a
    target entry that is not an int, a float say, raises TypeError.

    The sum of the scaled rows of ``_augmented_rows`` weighted by t at
    their pivots is L * (t | c) when t lies in the span, so the target is
    in it iff that sum's v-block is L * t, and c is its e-block over L.
    """
    t = [index(x) for x in target]
    if vectors and len(t) != len(vectors[0]):
        raise ValueError(f"target has {len(t)} entries, vectors have {len(vectors[0])}")
    scale, rows = _augmented_rows(vectors)
    if rows is None:
        return None
    s = [0] * (len(t) + len(vectors))
    for p, row in rows:
        s = [x + t[p] * y for x, y in zip(s, row)]
    if s[: len(t)] != [scale * x for x in t] or any(x % scale for x in s[len(t) :]):
        return None
    return [x // scale for x in s[len(t) :]]


class ExactMatrix:
    """Dense matrix of ints, held as row tuples that the matrices
    ``pivot`` derives from one another share."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        data = [tuple(row) for row in entries]
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        self.entries = data

    def column(self, j: int):
        return [row[j] for row in self.entries]

    def pivot(self, row: int, col: int) -> "ExactMatrix":
        """Clear column ``col`` off ``row`` by subtracting integer multiples
        of ``row``, whose entry there must be exactly 1, so nothing is
        scaled.  Rows zero in ``col`` are shared, not copied.
        Column-matroid preserving."""
        pr = self.entries[row]
        if pr[col] != 1:
            raise ValueError(f"pivot entry at ({row}, {col}) is {pr[col]}, not 1")
        return ExactMatrix(
            r if i == row or not r[col] else tuple(a - r[col] * b for a, b in zip(r, pr))
            for i, r in enumerate(self.entries)
        )
