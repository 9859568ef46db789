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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import GUARDS, check_guard
from .linalg import EchelonBasis, ExactMatrix, bareiss_rank
from .masks import format_mask, mask_elements

__all__ = [
    "ColumnDecomposition",
    "Embedding",
    "decompose_column",
    "embed",
    "verify_embedding",
    "minor_matroid_check",
    "parse_matrix_text",
    "read_matrix_file",
    "certificate_dict",
]


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


def decompose_column(column) -> ColumnDecomposition:
    """Slice an integer vector into positive and negative level sets."""
    col = [int(x) for x in column]
    pos, neg = [], []
    level = 1
    while True:
        m = 0
        for row, x in enumerate(col):
            if x >= level:
                m |= 1 << row
        if not m:
            break
        pos.append(m)
        level += 1
    level = 1
    while True:
        m = 0
        for row, x in enumerate(col):
            if x <= -level:
                m |= 1 << row
        if not m:
            break
        neg.append(m)
        level += 1
    return ColumnDecomposition(tuple(pos), tuple(neg))


@dataclass(frozen=True)
class Embedding:
    """The compiled minor presentation of an integer matrix.

    Coordinates come in one ambient block of size r followed by three
    blocks per column (negative, positive, positive-shadow); every
    carrier and helper is a nonzero 0/1 vector of the ambient space,
    stored as a bitmask over the coordinate list.
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

    def assembled_columns(self) -> list[int]:
        """All columns in certificate order (carriers interleaved with
        their helpers, as the pivot schedule expects)."""
        order = []
        helpers = list(self.helper_vectors)
        pos = 0
        for i, dec in enumerate(self.decompositions):
            order.append(self.carrier_vectors[i])
            take = len(dec.negative_sets) + 2 * len(dec.positive_sets)
            order.extend(helpers[pos : pos + take])
            pos += take
        return order


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
    if nrows >= 60:
        raise ValueError("matrix too tall for single-word row masks")
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
            raise AssertionError("level-set decomposition failed to reconstruct")
        decs.append(dec)

    names = [f"e{i + 1}" for i in range(nrows)]
    neg_idx, pos_idx, shadow_idx = {}, {}, {}
    for j, dec in enumerate(decs):
        for k in range(len(dec.negative_sets)):
            neg_idx[(j, k)] = len(names)
            names.append(f"e{j + 1},-{k + 1}")
        for k in range(len(dec.positive_sets)):
            pos_idx[(j, k)] = len(names)
            names.append(f"e{j + 1},+{k + 1}")
        for k in range(len(dec.positive_sets)):
            shadow_idx[(j, k)] = len(names)
            names.append(f"e{j + 1},++{k + 1}")
    ambient = len(names)

    carriers, helpers, order = [], [], []
    for j, dec in enumerate(decs):
        v = 0
        for k in range(len(dec.positive_sets)):
            v |= 1 << shadow_idx[(j, k)]
        for k in range(len(dec.negative_sets)):
            v |= 1 << neg_idx[(j, k)]
        carriers.append(v)
        order.append(f"v{j + 1}")
        for k, nk in enumerate(dec.negative_sets):
            helpers.append(nk | (1 << neg_idx[(j, k)]))
            order.append(f"r{j + 1},-{k + 1}")
        for k, pk in enumerate(dec.positive_sets):
            helpers.append(pk | (1 << pos_idx[(j, k)]))
            order.append(f"r{j + 1},+{k + 1}")
        for k in range(len(dec.positive_sets)):
            helpers.append((1 << pos_idx[(j, k)]) | (1 << shadow_idx[(j, k)]))
            order.append(f"r{j + 1},++{k + 1}")

    vectors = carriers + helpers
    if 0 in vectors or len(set(vectors)) != len(vectors):
        raise AssertionError("embedding vectors must be distinct and nonzero")
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


def _pivot_schedule(emb: Embedding):
    """(row name, column label) pairs: negative helpers first per column,
    then the positive and shadow helpers."""
    schedule = []
    for j, dec in enumerate(emb.decompositions):
        for k in range(len(dec.negative_sets)):
            schedule.append((f"e{j + 1},-{k + 1}", f"r{j + 1},-{k + 1}"))
        for k in range(len(dec.positive_sets)):
            schedule.append((f"e{j + 1},+{k + 1}", f"r{j + 1},+{k + 1}"))
            schedule.append((f"e{j + 1},++{k + 1}", f"r{j + 1},++{k + 1}"))
    return schedule


def verify_embedding(emb: Embedding, matrix) -> tuple[bool, dict]:
    """Run the pivot schedule and check the minor equals the input matrix.

    Returns (ok, certificate); the certificate always records the
    assembled data and every executed pivot, plus the reason on failure.
    """
    cleared = tuple(tuple(r) for r in _clear_columns(matrix))
    cert = certificate_dict(emb)
    if cleared != emb.cleared_matrix:
        cert["verified"] = False
        cert["failure"] = "matrix does not match the one the embedding was built for"
        return False, cert

    columns = emb.assembled_columns()
    col_pos = {label: idx for idx, label in enumerate(emb.column_order)}
    row_pos = {name: idx for idx, name in enumerate(emb.coordinate_names)}
    work = [[(col >> i) & 1 for col in columns] for i in range(emb.ambient_dim)]
    mat = ExactMatrix(work)
    executed = []
    for row_name, col_label in _pivot_schedule(emb):
        r, c = row_pos[row_name], col_pos[col_label]
        if mat.entries[r][c] == 0:
            cert["verified"] = False
            cert["pivots"] = executed
            cert["failure"] = f"zero pivot at row {row_name}, column {col_label}"
            return False, cert
        mat = mat.pivot(r, c)
        executed.append([row_name, col_label])
    cert["pivots"] = executed

    for row_name, col_label in _pivot_schedule(emb):
        c = col_pos[col_label]
        col = mat.column(c)
        if any(x != (1 if i == row_pos[row_name] else 0) for i, x in enumerate(col)):
            cert["verified"] = False
            cert["failure"] = f"column {col_label} did not reduce to a basis vector"
            return False, cert
    residual = [
        [mat.entries[i][col_pos[f"v{j + 1}"]] for j in range(emb.cols)]
        for i in range(emb.rows)
    ]
    cert["residual_matrix"] = [[str(x) for x in row] for row in residual]
    ok = all(
        residual[i][j] == emb.cleared_matrix[i][j]
        for i in range(emb.rows)
        for j in range(emb.cols)
    )
    cert["verified"] = ok
    if not ok:
        cert["failure"] = "residual minor differs from the input matrix"
    return ok, cert


def minor_matroid_check(
    emb: Embedding, matrix, sample_budget: int = 4096, seed: int = 0
) -> bool:
    """Rank-identity check: contracting the helpers must reproduce the
    matroid of the input columns.

    For every sampled subset S of carrier columns,
    rank(S + helpers) - rank(helpers) must equal the rank of the
    matching input columns.  Exhaustive when 2**cols fits the budget.
    """
    cleared = _clear_columns(matrix)
    if tuple(tuple(r) for r in cleared) != emb.cleared_matrix:
        return False
    dim = emb.ambient_dim
    helper_basis = EchelonBasis(dim)
    for h in emb.helper_vectors:
        helper_basis.add([(h >> i) & 1 for i in range(dim)])
    if helper_basis.rank != len(emb.helper_vectors):
        return False  # helpers must be independent for contraction
    residuals = [
        helper_basis.residual([(v >> i) & 1 for i in range(dim)])
        for v in emb.carrier_vectors
    ]
    ncols = emb.cols
    if (1 << ncols) <= sample_budget:
        subsets = range(1 << ncols)
    else:
        rng = random.Random(seed)
        subsets = [rng.randrange(1 << ncols) for _ in range(sample_budget)]
    for s in subsets:
        chosen = [j for j in range(ncols) if s >> j & 1]
        big_rank = bareiss_rank([residuals[j] for j in chosen])
        small_rank = bareiss_rank(
            [[cleared[i][j] for j in chosen] for i in range(emb.rows)]
        )
        if big_rank != small_rank:
            return False
    return True


def certificate_dict(emb: Embedding) -> dict:
    """JSON-ready description of the embedding."""

    def bits(v):
        return "".join("1" if v >> i & 1 else "0" for i in range(emb.ambient_dim))

    return {
        "rows": emb.rows,
        "cols": emb.cols,
        "ambient_dim": emb.ambient_dim,
        "coordinates": list(emb.coordinate_names),
        "column_order": list(emb.column_order),
        "carriers": {f"v{j + 1}": bits(v) for j, v in enumerate(emb.carrier_vectors)},
        "helpers": {
            lab: bits(v)
            for lab, v in zip(
                [l for l in emb.column_order if l.startswith("r")], emb.helper_vectors
            )
        },
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
    """Matrix file format: first line "r n", then r rows of n entries;
    '#' starts a comment line.  Entries may be integers or fractions."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("header must be two integers: rows cols")
    r, n = (int(x) for x in header)
    if r < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if len(lines) != r + 1:
        raise ValueError(f"expected {r} data rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n:
            raise ValueError(f"expected {n} entries per row, got {len(parts)}")
        try:
            rows.append([Fraction(p) for p in parts])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in row {len(rows) + 1}") from None
    return rows


def read_matrix_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())
