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
touch only the base rows and that block.  Each helper pivots on its own
coordinate of the block, so the pivots of different columns never mix
and ``verify_embedding`` replays them on one small block per column.
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
from .masks import format_mask, mask_elements


@dataclass(frozen=True)
class ColumnDecomposition:
    """Level sets of one integer column; masks index matrix rows."""

    positive_sets: tuple[int, ...]
    negative_sets: tuple[int, ...]

    def __post_init__(self):
        if 0 in self.positive_sets or 0 in self.negative_sets:
            raise ValueError("level sets must be nonempty")

    def reconstruct(self, nrows: int) -> tuple[int, ...]:
        col = [0] * nrows
        for p in self.positive_sets:
            for e in mask_elements(p):
                col[e - 1] += 1
        for q in self.negative_sets:
            for e in mask_elements(q):
                col[e - 1] -= 1
        return tuple(col)


def _level_sets(col):
    """Masks of the rows where ``col`` is >= 1, >= 2, ... up to its maximum."""
    return tuple(
        sum(1 << row for row, x in enumerate(col) if x >= level)
        for level in range(1, max(col, default=0) + 1)
    )


def decompose_column(column) -> ColumnDecomposition:
    """Slice an integer vector into positive and negative level sets."""
    col = [int(x) for x in column]
    return ColumnDecomposition(_level_sets(col), _level_sets([-x for x in col]))


@dataclass(frozen=True)
class Embedding:
    """The compiled minor presentation of an integer matrix.

    Coordinates come as the r base rows followed by one block per
    column (see ``_blocks``); every carrier and helper is a nonzero 0/1
    vector of the ambient space, stored as a bitmask over the coordinate
    list.
    """

    rows: int
    cols: int
    ambient_dim: int
    coordinate_names: tuple[str, ...]
    carrier_vectors: tuple[int, ...]    # one per input column, in order
    helper_vectors: tuple[int, ...]     # contracted away, in column order
    column_order: tuple[str, ...]       # certificate column labels
    decompositions: tuple[ColumnDecomposition, ...]
    cleared_matrix: tuple[tuple[int, ...], ...]


def _blocks(decs):
    """The column blocks of an embedding, in order:
    (j, decomposition, first, suffixes, pivot order).

    Block j owns coordinates ``rows + first + t`` and helpers ``first + t``
    for t < len(suffixes); suffix s names coordinate ``e{j},s`` and helper
    ``r{j},s``.  The suffixes are -k for each negative level, then +k,
    then ++k for each positive level.  Helper t pivots on coordinate t:
    the negative helpers first, then each +k just before its ++k.
    """
    first = 0
    for j, dec in enumerate(decs):
        m, p = len(dec.negative_sets), len(dec.positive_sets)
        suffixes = [f"-{k}" for k in range(1, m + 1)]
        suffixes += [f"+{k}" for k in range(1, p + 1)] + [f"++{k}" for k in range(1, p + 1)]
        pivots = [*range(m), *(t for k in range(m, m + p) for t in (k, k + p))]
        yield j, dec, first, suffixes, pivots
        first += len(suffixes)


def _clear_columns(matrix):
    """Scale each column to integers (column scaling is matroid-invariant)."""
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    nrows, ncols = len(rows), len(rows[0])
    out = [[0] * ncols for _ in range(nrows)]
    for j in range(ncols):
        col = [Fraction(rows[i][j]) for i in range(nrows)]
        mult = lcm(*(x.denominator for x in col))
        for i in range(nrows):
            v = col[i] * mult
            out[i][j] = int(v)
    return out


def embed(matrix, cap: int | None = GUARDS["embed_ambient"]) -> Embedding:
    """Compile a matrix into carrier plus helper 0/1 vectors.

    Zero columns are rejected: a loop admits no level-set decomposition
    with nonempty parts and nothing to pivot on.  ``cap`` bounds the
    ambient dimension, checked before any vector is built.
    """
    cleared = _clear_columns(matrix)
    nrows, ncols = len(cleared), len(cleared[0])
    # One coordinate per row, per negative level and per positive level twice.
    levels = sum(max(0, -min(c)) + 2 * max(0, max(c)) for c in zip(*cleared))
    check_guard("embedding: ambient dimension", nrows + levels, cap)
    decs = []
    for j in range(ncols):
        col = [cleared[i][j] for i in range(nrows)]
        if not any(col):
            raise ValueError(f"column {j + 1} is zero; loops are not embeddable")
        dec = decompose_column(col)
        if dec.reconstruct(nrows) != tuple(col):
            raise InternalCheckError("level-set decomposition failed to reconstruct")
        decs.append(dec)

    names = [f"e{i + 1}" for i in range(nrows)]
    carriers, helpers, order = [], [], []
    for j, dec, first, suffixes, _ in _blocks(decs):
        m, p = len(dec.negative_sets), len(dec.positive_sets)
        names += [f"e{j + 1},{s}" for s in suffixes]
        order += [f"v{j + 1}"] + [f"r{j + 1},{s}" for s in suffixes]
        bit = [1 << (nrows + first + t) for t in range(len(suffixes))]
        carriers.append(sum(bit[:m]) + sum(bit[m + p :]))
        helpers += [nk | bit[k] for k, nk in enumerate(dec.negative_sets)]
        helpers += [pk | bit[m + k] for k, pk in enumerate(dec.positive_sets)]
        helpers += [bit[m + k] | bit[m + p + k] for k in range(p)]
    ambient = len(names)

    vectors = carriers + helpers
    if 0 in vectors or len(set(vectors)) != len(vectors):
        raise InternalCheckError("embedding vectors must be distinct and nonzero")
    return Embedding(
        rows=nrows,
        cols=ncols,
        ambient_dim=ambient,
        coordinate_names=tuple(names),
        carrier_vectors=tuple(carriers),
        helper_vectors=tuple(helpers),
        column_order=tuple(order),
        decompositions=tuple(decs),
        cleared_matrix=tuple(tuple(r) for r in cleared),
    )


def verify_embedding(emb: Embedding, matrix) -> tuple[bool, dict]:
    """Replay the pivots block by block and check the minor equals the input.

    Block j is the 0/1 matrix of column j's carrier and helpers on the r
    base rows and block j's own coordinates.  First there must be one
    block and one carrier per input column and one helper per block
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
    cleared = tuple(tuple(r) for r in _clear_columns(matrix))
    findings = {}

    def fail(reason):
        findings["verified"] = False
        findings["failure"] = reason
        return False, findings

    if cleared != emb.cleared_matrix:
        return fail("matrix does not match the one the embedding was built for")
    cols = len(cleared[0])
    size = sum(len(suffixes) for *_, suffixes, _ in _blocks(emb.decompositions))
    got = (len(emb.decompositions), len(emb.carrier_vectors), len(emb.helper_vectors))
    if got != (cols, cols, size):
        return fail(f"expected {cols} blocks, {cols} carriers and {size} helpers, "
                    f"got {got[0]}, {got[1]} and {got[2]}")
    r = emb.rows
    findings["pivots"] = executed = []
    residual = []
    for j, _, first, suffixes, pivots in _blocks(emb.decompositions):
        size = len(suffixes)
        labels = [f"v{j + 1}"] + [f"r{j + 1},{s}" for s in suffixes]
        vectors = [emb.carrier_vectors[j], *emb.helper_vectors[first : first + size]]
        coords = [*range(r), *range(r + first, r + first + size)]
        own = sum(1 << i for i in coords)
        stray = next((lab for lab, v in zip(labels, vectors) if v & ~own), None)
        if stray is not None:
            return fail(f"vector {stray} leaves column block {j + 1}")
        mat = ExactMatrix([[v >> i & 1 for v in vectors] for i in coords])
        for t in pivots:
            row_name, col_label = f"e{j + 1},{suffixes[t]}", labels[1 + t]
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
    if tuple(tuple(r) for r in cleared) != emb.cleared_matrix:
        return False
    r, dim = emb.rows, emb.ambient_dim
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

    def bits(v):
        return "".join("1" if v >> i & 1 else "0" for i in range(emb.ambient_dim))

    # Paired in order, so a malformed embedding still gets a certificate;
    # ``verify_embedding`` checks the counts.
    helper_labels = (
        f"r{j + 1},{s}" for j, _, _, suffixes, _ in _blocks(emb.decompositions) for s in suffixes
    )
    return {
        "rows": emb.rows,
        "cols": emb.cols,
        "ambient_dim": emb.ambient_dim,
        "coordinates": list(emb.coordinate_names),
        "column_order": list(emb.column_order),
        "carriers": {f"v{j + 1}": bits(v) for j, v in enumerate(emb.carrier_vectors)},
        "helpers": dict(zip(helper_labels, map(bits, emb.helper_vectors))),
        "decompositions": [
            {
                "positive": [format_mask(p) for p in d.positive_sets],
                "negative": [format_mask(q) for q in d.negative_sets],
            }
            for d in emb.decompositions
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
