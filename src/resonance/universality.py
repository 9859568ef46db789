"""Compile any rational matrix's matroid into a minor of a resonance matroid.

Each column a_i of an integer r x n matrix decomposes into level sets,

    a_i = sum_j chi(P_j) - sum_k chi(N_k),

with P_j the rows where the entry is >= j and N_k the rows where it is
<= -k.  Auxiliary coordinates then let every column be rewritten with
0/1 vectors: a "carrier" vector v_i per column plus helper vectors that
will be contracted away.  All of these are nonzero 0/1 vectors in the
ambient space, i.e. hyperplanes of the resonance arrangement there, and
pivoting the helpers to standard basis vectors exhibits the original
matrix as the result of restriction plus contraction.  The pivot
sequence doubles as a machine-checkable certificate.

Column j owns one block of coordinates, and its carrier and helpers
touch only the base rows and that block.  The level sets and the layout
of every block follow from the cleared matrix alone: ``_blocks`` derives
them, and ``embed``, ``verify_embedding`` and ``certificate_dict`` all
read that one derivation.  Each helper pivots on its own coordinate of
the block, so the pivots of different columns never mix and
``verify_embedding`` replays them on one small block per column.
``minor_matroid_check`` is the independent second route, exact and blind
to the block layout: one elimination of all helpers, with the base rows
ordered last, then one reduction per carrier, which must leave a nonzero
multiple of the input column on the base rows and nothing elsewhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import GUARDS, InternalCheckError, check_guard
from .linalg import EchelonBasis, ExactMatrix, bareiss_rank


def _level_sets(col):
    """Masks of the rows where ``col`` is >= 1, >= 2, ... up to its maximum."""
    return tuple(
        sum(1 << row for row, x in enumerate(col) if x >= level)
        for level in range(1, max(col, default=0) + 1)
    )


def _ambient_dim(cleared):
    """One coordinate per row, per negative level and per positive level twice."""
    return len(cleared) + sum(max(0, -min(c)) + 2 * max(0, max(c)) for c in zip(*cleared))


@dataclass(frozen=True)
class Embedding:
    """The compiled minor presentation of an integer matrix.

    Coordinates come as the r base rows followed by one block per
    column; ``_blocks`` derives each block's layout and names from
    ``cleared_matrix``.  Every carrier and helper is a nonzero 0/1
    vector of the ambient space, stored as a bitmask over the
    coordinates.
    """

    cleared_matrix: tuple[tuple[int, ...], ...]
    carrier_vectors: tuple[int, ...]    # one per input column, in order
    helper_vectors: tuple[int, ...]     # contracted away, in column order

    @property
    def ambient_dim(self) -> int:
        return _ambient_dim(self.cleared_matrix)


def _blocks(cleared):
    """The column blocks of the embedding of ``cleared``, in order:
    (j, negative level sets, positive level sets, first, coordinate
    names, column labels, pivot order).

    The level sets of column j are ``_level_sets`` of -a_j and of a_j.
    Block j owns coordinates ``rows + first + t`` and helpers ``first + t``
    for t < len(names); suffix s names coordinate ``e{j},s`` and helper
    ``r{j},s``, and the labels are the carrier ``v{j}`` then the helpers.
    The suffixes are -k for each negative level, then +k, then ++k for
    each positive level.  Helper t pivots on coordinate t: the negative
    helpers first, then each +k just before its ++k.
    """
    first = 0
    for j, col in enumerate(zip(*cleared)):
        negative, positive = _level_sets([-x for x in col]), _level_sets(col)
        m, p = len(negative), len(positive)
        suffixes = [f"-{k}" for k in range(1, m + 1)]
        suffixes += [f"+{k}" for k in range(1, p + 1)] + [f"++{k}" for k in range(1, p + 1)]
        names = [f"e{j + 1},{s}" for s in suffixes]
        labels = [f"v{j + 1}"] + [f"r{j + 1},{s}" for s in suffixes]
        pivots = [*range(m), *(t for k in range(m, m + p) for t in (k, k + p))]
        yield j, negative, positive, first, names, labels, pivots
        first += len(suffixes)


def _clear_columns(matrix):
    """Scale each column to integers (column scaling is matroid-invariant); rows as tuples."""
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    columns = []
    for col in zip(*rows):
        col = [Fraction(x) for x in col]
        mult = lcm(*(x.denominator for x in col))
        columns.append([int(x * mult) for x in col])
    return tuple(zip(*columns))


def embed(matrix, cap: int | None = GUARDS["embed_ambient"]) -> Embedding:
    """Compile a matrix into carrier plus helper 0/1 vectors.

    Zero columns are rejected: a loop admits no level-set decomposition
    with nonempty parts and nothing to pivot on.  ``cap`` bounds the
    ambient dimension, checked before any vector is built.
    """
    cleared = _clear_columns(matrix)
    nrows = len(cleared)
    for j, col in enumerate(zip(*cleared)):
        if not any(col):
            raise ValueError(f"column {j + 1} is zero; loops are not embeddable")
    check_guard("embedding: ambient dimension", _ambient_dim(cleared), cap)
    carriers, helpers = [], []
    for j, negative, positive, first, names, _, _ in _blocks(cleared):
        col = [row[j] for row in cleared]
        rebuilt = [sum(s >> i & 1 for s in positive) - sum(s >> i & 1 for s in negative)
                   for i in range(nrows)]
        if rebuilt != col:
            raise InternalCheckError("level-set decomposition failed to reconstruct")
        m, p = len(negative), len(positive)
        bit = [1 << (nrows + first + t) for t in range(len(names))]
        carriers.append(sum(bit[:m]) + sum(bit[m + p :]))
        helpers += [nk | bit[k] for k, nk in enumerate(negative)]
        helpers += [pk | bit[m + k] for k, pk in enumerate(positive)]
        helpers += [bit[m + k] | bit[m + p + k] for k in range(p)]

    vectors = carriers + helpers
    if 0 in vectors or len(set(vectors)) != len(vectors):
        raise InternalCheckError("embedding vectors must be distinct and nonzero")
    return Embedding(cleared, tuple(carriers), tuple(helpers))


def verify_embedding(emb: Embedding, matrix) -> tuple[bool, dict]:
    """Replay the pivots block by block and check the minor equals the input.

    Block j is the 0/1 matrix of column j's carrier and helpers on the r
    base rows and block j's own coordinates; ``_blocks`` lays the blocks
    out from the input matrix, once it equals the stored one.  First
    there must be one carrier per input column and one helper per block
    coordinate, and every vector must lie in its block.  Then a pivot
    of block j leaves every other block's columns unchanged: its pivot
    row is zero on them, and it only adds to rows that are nonzero in
    its pivot column, which are base rows and block j's own.  So
    pivoting each small block yields the same columns as pivoting the
    whole ambient matrix, and the checks below (pivot entries equal to
    1, helpers reduced to unit vectors, residual equal to the input)
    are the same checks.

    In a block ``embed`` builds, coordinate t's row is nonzero only in
    helper t's column and, for +k, in ++k's, pivoted after it; so no
    coordinate row changes before its own pivot, each pivot entry is the
    1 ``embed`` put there, and the replay stays integral with no scaling.

    Returns (ok, findings): only what the replay found, namely
    ``verified``, the executed ``pivots`` and the ``residual_matrix`` as
    far as the replay got, plus the ``failure`` reason when it fails.
    """
    cleared = _clear_columns(matrix)
    findings = {}

    def fail(reason):
        findings["verified"] = False
        findings["failure"] = reason
        return False, findings

    if cleared != emb.cleared_matrix:
        return fail("matrix does not match the one the embedding was built for")
    r, cols = len(cleared), len(cleared[0])
    size = _ambient_dim(cleared) - r
    got = (len(emb.carrier_vectors), len(emb.helper_vectors))
    if got != (cols, size):
        return fail(f"expected {cols} carriers and {size} helpers, got {got[0]} and {got[1]}")
    findings["pivots"] = executed = []
    residual = []
    for j, _, _, first, names, labels, pivots in _blocks(cleared):
        size = len(names)
        vectors = [emb.carrier_vectors[j], *emb.helper_vectors[first : first + size]]
        coords = [*range(r), *range(r + first, r + first + size)]
        own = sum(1 << i for i in coords)
        stray = next((lab for lab, v in zip(labels, vectors) if v & ~own), None)
        if stray is not None:
            return fail(f"vector {stray} leaves column block {j + 1}")
        mat = ExactMatrix([[v >> i & 1 for v in vectors] for i in coords])
        for t in pivots:
            row_name, col_label = names[t], labels[1 + t]
            entry = mat.entries[r + t][1 + t]
            if entry != 1:
                return fail(f"pivot entry {entry} at row {row_name}, column {col_label} is not 1")
            mat = mat.pivot(r + t, 1 + t)
            executed.append([row_name, col_label])
        for t in range(size):
            if mat.column(1 + t) != [int(i == r + t) for i in range(r + size)]:
                return fail(f"column {labels[1 + t]} did not reduce to a basis vector")
        residual.append(mat.column(0)[:r])
    findings["residual_matrix"] = [[str(x) for x in row] for row in zip(*residual)]
    if residual != [list(col) for col in zip(*emb.cleared_matrix)]:
        return fail("residual minor differs from the input matrix")
    findings["verified"] = True
    return True, findings


def minor_matroid_check(emb: Embedding, matrix) -> bool:
    """Second route: contracting the helpers must reproduce the input's matroid.

    The coordinates are taken with the r base rows last, and the helpers
    enter one ``EchelonBasis``; they must be independent.  A fraction-free
    reduction turns each carrier v into d*v plus helpers (d != 0), zero at
    every helper pivot, so the residuals' span meets the helpers' span only
    in 0, and for every set S of columns
    rank(S + helpers) - rank(helpers) is the rank of S's residuals.  Each
    residual must vanish off the base rows, and its base-row part must be
    a nonzero multiple of the matching column of the cleared input.
    Scaling a column keeps the matroid, so the two matroids then agree on
    every subset.  The identity is sufficient, not necessary: a carrier
    whose residual is another column with the same matroid is refused.
    The check reads nothing from ``_blocks``, so it does not depend on the
    certificate's layout.
    """
    cleared = _clear_columns(matrix)
    if cleared != emb.cleared_matrix:
        return False
    r, dim = len(cleared), emb.ambient_dim
    if len(emb.carrier_vectors) != len(cleared[0]) or any(
        v >> dim for v in emb.carrier_vectors + emb.helper_vectors
    ):
        return False  # one carrier per column, every vector in the ambient space
    order = [*range(r, dim), *range(r)]  # helper coordinates first, base rows last
    helper_basis = EchelonBasis()
    for h in emb.helper_vectors:
        helper_basis.add([h >> i & 1 for i in order])
    if helper_basis.rank != len(emb.helper_vectors):
        return False  # helpers must be independent for contraction
    for j, v in enumerate(emb.carrier_vectors):
        residual = helper_basis.residual([v >> i & 1 for i in order])
        part, column = residual[dim - r :], [row[j] for row in cleared]
        if any(residual[: dim - r]) or not any(part) or not any(column):
            return False
        if bareiss_rank([part, column]) != 1:
            return False
    return True


def certificate_dict(emb: Embedding) -> dict:
    """JSON-ready description of the embedding."""
    rows, dim = len(emb.cleared_matrix), emb.ambient_dim

    def bits(v):
        return "".join("1" if v >> i & 1 else "0" for i in range(dim))

    def subset(mask):
        return "{" + ",".join(str(i + 1) for i in range(rows) if mask >> i & 1) + "}"

    blocks = list(_blocks(emb.cleared_matrix))
    # Paired in order, so a malformed embedding still gets a certificate;
    # ``verify_embedding`` checks the counts.
    carriers = zip((labels[0] for *_, labels, _ in blocks), emb.carrier_vectors)
    helpers = zip((lab for *_, labels, _ in blocks for lab in labels[1:]), emb.helper_vectors)
    return {
        "rows": rows,
        "cols": len(emb.cleared_matrix[0]),
        "ambient_dim": dim,
        "coordinates": [f"e{i + 1}" for i in range(rows)]
        + [name for *_, names, _, _ in blocks for name in names],
        "column_order": [lab for *_, labels, _ in blocks for lab in labels],
        "carriers": {lab: bits(v) for lab, v in carriers},
        "helpers": {lab: bits(v) for lab, v in helpers},
        "decompositions": [
            {"positive": [subset(s) for s in pos], "negative": [subset(s) for s in neg]}
            for _, neg, pos, *_ in blocks
        ],
        "matrix": [[str(x) for x in row] for row in emb.cleared_matrix],
    }


def parse_matrix_text(text: str):
    """Matrix file format: first line "r n" (two integers), then r rows
    of n entries; '#' starts a comment line.  Each entry is an integer or
    ``p/q``, with an optional sign."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2 or not all(re.fullmatch(r"[+-]?[0-9]+", h) for h in header):
        raise ValueError("header must be two integers: rows cols")
    r, n = (int(x) for x in header)
    if r < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if len(lines) != r + 1:
        raise ValueError(f"expected {r} data rows, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:], 1):
        parts = ln.split()
        if len(parts) != n:
            raise ValueError(f"expected {n} entries per row, got {len(parts)}")
        if not all(re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", p) for p in parts):
            raise ValueError(f"row {i}: entries must be integers or p/q")
        try:
            rows.append([Fraction(p) for p in parts])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in row {i}") from None
    return rows


def read_matrix_file(path):
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_matrix_text(fh.read())
