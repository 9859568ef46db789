"""Exact rank, span and pivot computations on integer matrices.

One elimination kernel serves every general job: ``EchelonBasis``, an
incrementally built, fully reduced integer row basis.  Rank, span
membership, the coefficients expressing a vector over others and square
solves all go through it.  ``restrict`` is its row-update step on its
own: it restricts a list of integer normals to the hyperplane with
normal ``h``, and the region recursion uses it too.
``ExactMatrix.pivot`` is the one other elimination step; it replays the
pivots an embedding certificate prescribes, each on an entry equal to 1.
Every elimination is in ints, never floats; the only rationals are the
coefficients ``span_coefficients`` returns.
"""

from __future__ import annotations

from math import gcd


def _normalize_int_row(row):
    """Divide out the gcd and make the leading nonzero entry positive.

    Returns None for the zero row.  Proportional rows normalize to the
    same tuple, which is what closure-delta grouping relies on.
    """
    g = gcd(*row)
    if not g:
        return None
    if next(x for x in row if x) < 0:
        g = -g
    elif g == 1:
        return tuple(row)
    return tuple(x // g for x in row)


def restrict(rows, h):
    """Eliminate the pivot of the normalized row ``h`` from every row.

    The pivot is the first nonzero position p of ``h``.  A row with a
    nonzero entry at p becomes ``h[p] * row - row[p] * h``, normalized,
    and is dropped when that is zero (the row was proportional to h);
    a row that is zero at p comes back as the same tuple.  The order is
    kept.  Every result is zero at p, so equal rows stay equal and
    normalized rows stay normalized.
    """
    p = next(j for j, x in enumerate(h) if x)
    a = h[p]
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


def _span_solver(vectors):
    """``(rank, solve)`` for integer ``vectors``: their rank and a function
    giving Fraction coefficients that express a target over them, or None
    outside their span (unique coefficients when they are independent).

    Each v_i enters one basis as ``v_i | e_i | 0``; a target t reduces as
    ``t | 0 | 1`` to ``d*t + sum m_i v_i | m | d`` with d != 0, zero at
    every pivot.  Its first block vanishes iff t is in the span, and then
    t = sum (-m_i / d) v_i.  Rows pivoting in the first block count the rank.
    """
    from fractions import Fraction
    vecs = [list(v) for v in vectors]
    k = len(vecs)
    size = len(vecs[0]) if vecs else 0
    basis = EchelonBasis()
    for i, v in enumerate(vecs):
        basis.add(v + [0] * i + [1] + [0] * (k - i))
    pad = [0] * k + [1]

    def solve(target):
        t = list(target)
        if vecs and len(t) != size:
            raise ValueError(f"target has {len(t)} entries, vectors have {size}")
        res = basis.residual(t + pad)
        if any(res[: -k - 1]):
            return None
        return [Fraction(-m, res[-1]) for m in res[-k - 1 : -1]]

    return sum(p < size for p in basis._pivots), solve


def span_coefficients(vectors, target):
    """Exact coefficients c with sum c_i * vectors[i] == target, or None
    when ``target`` lies outside the span of the integer ``vectors``."""
    return _span_solver(vectors)[1](target)


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
