import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest

from resonance.linalg import bareiss_rank
from resonance.universality import (
    decompose_column,
    embed,
    minor_matroid_check,
    parse_matrix_text,
    read_matrix_file,
    verify_embedding,
)

from oracles import certificate_columns, dense_pivot_replay, fraction_rank

# The worked 3x2 example: columns (1,-2,-1) and (-1,0,-1).
EXAMPLE = [[1, -1], [-2, 0], [-1, -1]]

# Assembled 0/1 columns for the example, rows in coordinate order
# (three ambient rows, then the helper blocks), columns in the order
# v1, r1-1, r1-2, r1+1, r1++1, v2, r2-1.
EXAMPLE_BEFORE = [
    [0, 0, 0, 1, 0, 0, 1],
    [0, 1, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 1],
    [1, 1, 0, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 0, 0],
    [1, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 1],
]

# The same matrix after the pivot schedule: helper columns have become
# standard basis vectors and the carrier columns hold the input columns
# in their top rows.
EXAMPLE_AFTER = [
    [1, 0, 0, 0, 0, -1, 0],
    [-2, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, -1, 0],
    [1, 1, 0, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 0, 0],
    [-1, 0, 0, 1, 0, 0, 0],
    [1, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 1],
]


def test_decompose_example_columns():
    d1 = decompose_column([1, -2, -1])
    assert d1.positive_sets == (0b001,)
    assert d1.negative_sets == (0b110, 0b010)
    d2 = decompose_column([-1, 0, -1])
    assert d2.positive_sets == ()
    assert d2.negative_sets == (0b101,)


def test_decompose_zero_column_is_empty():
    d = decompose_column([0, 0, 0])
    assert d.positive_sets == () and d.negative_sets == ()


def test_decompose_reconstructs_exhaustive_grid():
    for dim in (1, 2):
        for col in product(range(-10, 11), repeat=dim):
            assert decompose_column(col).reconstruct(dim) == col
    for col in product(range(-3, 4), repeat=3):
        assert decompose_column(col).reconstruct(3) == col


def test_decompose_reconstructs_random_high_dim():
    rng = random.Random(31)
    for _ in range(200):
        dim = rng.randint(4, 8)
        col = tuple(rng.randint(-10, 10) for _ in range(dim))
        assert decompose_column(col).reconstruct(dim) == col


def test_embed_example_matches_display():
    emb = embed(EXAMPLE)
    assert emb.ambient_dim == 8
    assert len(emb.helper_vectors) == 5
    assert emb.column_order == ("v1", "r1,-1", "r1,-2", "r1,+1", "r1,++1", "v2", "r2,-1")
    cols = certificate_columns(emb)
    got = [[(c >> i) & 1 for c in cols] for i in range(8)]
    assert got == EXAMPLE_BEFORE


def test_embed_vector_invariants():
    emb = embed(EXAMPLE)
    vectors = list(emb.carrier_vectors) + list(emb.helper_vectors)
    assert all(v > 0 for v in vectors)
    assert len(set(vectors)) == len(vectors)
    assert all(v < (1 << emb.ambient_dim) for v in vectors)
    m_minus = [len(d.negative_sets) for d in emb.decompositions]
    m_plus = [len(d.positive_sets) for d in emb.decompositions]
    assert emb.ambient_dim == emb.rows + sum(m + 2 * p for m, p in zip(m_minus, m_plus))
    assert len(emb.helper_vectors) == sum(m + 2 * p for m, p in zip(m_minus, m_plus))


def test_embed_identity_and_single_entry():
    emb = embed([[1, 0], [0, 1]])
    assert emb.ambient_dim == 6
    assert len(emb.helper_vectors) == 4
    emb1 = embed([[1]])
    assert emb1.ambient_dim == 3
    assert len(emb1.helper_vectors) == 2
    assert len(emb1.carrier_vectors) == 1


def test_embed_rejects_zero_column():
    with pytest.raises(ValueError):
        embed([[1, 0], [1, 0]])


def test_embed_clears_rational_columns():
    emb = embed([[Fraction(1, 2)], [Fraction(-1, 3)]])
    assert emb.cleared_matrix == ((3,), (-2,))
    ok, _ = verify_embedding(emb, [[Fraction(1, 2)], [Fraction(-1, 3)]])
    assert ok


def test_verify_example_reproduces_pivoted_matrix():
    emb = embed(EXAMPLE)
    ok, cert = verify_embedding(emb, EXAMPLE)
    assert ok
    assert cert["verified"]
    # replay the certificate pivots on the frozen matrix and compare
    from resonance.linalg import ExactMatrix

    mat = ExactMatrix(EXAMPLE_BEFORE)
    order = {lab: idx for idx, lab in enumerate(emb.column_order)}
    rows = {name: idx for idx, name in enumerate(emb.coordinate_names)}
    for row_name, col_label in cert["pivots"]:
        mat = mat.pivot(rows[row_name], order[col_label])
    assert mat.entries == ExactMatrix(EXAMPLE_AFTER).entries
    assert cert["residual_matrix"] == [["1", "-1"], ["-2", "0"], ["-1", "-1"]]


def test_verify_returns_only_what_it_checked(monkeypatch):
    from resonance import universality

    def refuse(emb):
        raise AssertionError("verify_embedding must not build a certificate")

    monkeypatch.setattr(universality, "certificate_dict", refuse)
    ok, findings = verify_embedding(embed(EXAMPLE), EXAMPLE)
    assert ok and findings.keys() == {"verified", "pivots", "residual_matrix"}
    ok, findings = verify_embedding(embed(EXAMPLE), [[1]])
    assert not ok and findings.keys() == {"verified", "failure"}


def test_pivots_pair_each_positive_level_with_its_shadow():
    _, cert = verify_embedding(embed([[2]]), [[2]])
    assert cert["pivots"] == [
        ["e1,+1", "r1,+1"],
        ["e1,++1", "r1,++1"],
        ["e1,+2", "r1,+2"],
        ["e1,++2", "r1,++2"],
    ]


def test_verify_detects_tampering():
    emb = embed(EXAMPLE)
    flipped = list(emb.helper_vectors)
    flipped[0] ^= 1 << 2  # flip one bit of one helper
    tampered = type(emb)(
        rows=emb.rows,
        cols=emb.cols,
        ambient_dim=emb.ambient_dim,
        coordinate_names=emb.coordinate_names,
        carrier_vectors=emb.carrier_vectors,
        helper_vectors=tuple(flipped),
        column_order=emb.column_order,
        decompositions=emb.decompositions,
        cleared_matrix=emb.cleared_matrix,
    )
    ok, cert = verify_embedding(tampered, EXAMPLE)
    assert not ok
    assert "failure" in cert


def test_verify_rejects_vector_outside_its_block():
    emb = embed(EXAMPLE)
    flipped = list(emb.helper_vectors)
    flipped[0] |= 1 << emb.coordinate_names.index("e2,-1")  # block 2's coordinate
    tampered = dataclasses.replace(emb, helper_vectors=tuple(flipped))
    ok, cert = verify_embedding(tampered, EXAMPLE)
    assert not ok and cert["verified"] is False
    assert cert["failure"] == "vector r1,-1 leaves column block 1"


@pytest.mark.parametrize(
    "change, got",
    [
        (lambda e: {"helper_vectors": e.helper_vectors + (1,)}, "2, 2 and 6"),
        (lambda e: {"helper_vectors": e.helper_vectors[:-1]}, "2, 2 and 4"),
        (lambda e: {"carrier_vectors": e.carrier_vectors[:-1]}, "2, 1 and 5"),
    ],
    ids=["extra-helper", "missing-helper", "missing-carrier"],
)
def test_verify_checks_the_vector_counts(change, got):
    emb = embed(EXAMPLE)
    ok, cert = verify_embedding(dataclasses.replace(emb, **change(emb)), EXAMPLE)
    assert not ok and cert["verified"] is False
    assert cert["failure"] == f"expected 2 blocks, 2 carriers and 5 helpers, got {got}"
    assert "pivots" not in cert


def test_verify_refuses_a_pivot_entry_other_than_one():
    # For [[1]] the coordinates are e1, e1,+1, e1,++1.  Moving the bit of
    # e1,++1 from helper r1,++1 to helper r1,+1 makes the first pivot
    # subtract row e1,+1 from row e1,++1, which leaves -1 at the next pivot.
    emb = embed([[1]])
    plus, shadow = emb.helper_vectors
    tampered = dataclasses.replace(emb, helper_vectors=(plus | 0b100, shadow & ~0b100))
    ok, cert = verify_embedding(tampered, [[1]])
    assert not ok and cert["verified"] is False
    assert cert["failure"] == "pivot entry -1 at row e1,++1, column r1,++1 is not 1"
    assert cert["pivots"] == [["e1,+1", "r1,+1"]]


@pytest.mark.parametrize("entry, ambient", [(127, 255), (-255, 256)])
def test_largest_single_entries_verify_both_ways(entry, ambient):
    # One block of ambient - 1 coordinates, the largest the embed guard allows.
    emb = embed([[entry]])
    assert emb.ambient_dim == ambient
    ok, cert = verify_embedding(emb, [[entry]])
    assert ok and cert["residual_matrix"] == [[str(entry)]]
    assert len(cert["pivots"]) == ambient - 1
    assert minor_matroid_check(emb, [[entry]])


def test_minor_check_example_exhaustive():
    emb = embed(EXAMPLE)
    assert minor_matroid_check(emb, EXAMPLE)


def test_minor_check_detects_duplicate_carrier():
    emb = embed(EXAMPLE)
    broken = type(emb)(
        rows=emb.rows,
        cols=emb.cols,
        ambient_dim=emb.ambient_dim,
        coordinate_names=emb.coordinate_names,
        carrier_vectors=(emb.helper_vectors[0], emb.carrier_vectors[1]),
        helper_vectors=emb.helper_vectors,
        column_order=emb.column_order,
        decompositions=emb.decompositions,
        cleared_matrix=emb.cleared_matrix,
    )
    assert not minor_matroid_check(broken, EXAMPLE)


def test_minor_check_sees_a_rank_change_only_the_full_set_shows():
    # 13 unit columns and their sum, over 14 rows whose last is zero.  Adding
    # the zero row's bit to the sum's carrier raises the rank of the full set
    # of 14 columns alone; no proper subset's rank changes.
    n = 14
    matrix = [[int(i < n - 1 and j in (i, n - 1)) for j in range(n)] for i in range(n)]
    emb = embed(matrix)
    assert minor_matroid_check(emb, matrix)
    carriers = list(emb.carrier_vectors)
    carriers[-1] |= 1 << (n - 1)
    tampered = dataclasses.replace(emb, carrier_vectors=tuple(carriers))
    assert not verify_embedding(tampered, matrix)[0]
    assert not minor_matroid_check(tampered, matrix)


def test_minor_check_rejects_a_missing_carrier_or_a_stray_bit():
    emb = embed(EXAMPLE)
    assert not minor_matroid_check(
        dataclasses.replace(emb, carrier_vectors=emb.carrier_vectors[:1]), EXAMPLE
    )
    stray = emb.carrier_vectors[1] | 1 << emb.ambient_dim
    assert not minor_matroid_check(
        dataclasses.replace(emb, carrier_vectors=(emb.carrier_vectors[0], stray)), EXAMPLE
    )


def test_embed_has_no_row_limit():
    # 70 rows of entries +-1: one coordinate per row, one per column of -1s
    # and two per column of +1s, so ambient 70 + 3 * 3 = 79.
    matrix = [[(-1) ** (i * j + i // 7) for j in range(3)] for i in range(70)]
    emb = embed(matrix)
    assert emb.ambient_dim == 79
    assert verify_embedding(emb, matrix)[0]
    assert minor_matroid_check(emb, matrix)


def test_helpers_are_independent():
    rng = random.Random(32)
    for _ in range(20):
        r, n = rng.randint(1, 4), rng.randint(1, 5)
        matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        if any(all(matrix[i][j] == 0 for i in range(r)) for j in range(n)):
            continue
        emb = embed(matrix)
        dim = emb.ambient_dim
        rows = [[(h >> i) & 1 for i in range(dim)] for h in emb.helper_vectors]
        assert bareiss_rank(rows) == len(emb.helper_vectors)


def test_random_matrices_verify_and_contract():
    rng = random.Random(33)
    for _ in range(50):
        r, n = rng.randint(1, 3), rng.randint(1, 4)
        while True:
            matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
            if all(any(matrix[i][j] for i in range(r)) for j in range(n)):
                break
        emb = embed(matrix)
        ok, cert = verify_embedding(emb, matrix)
        assert ok
        assert minor_matroid_check(emb, matrix)
        # the block-local replay agrees with pivoting the whole ambient matrix
        replay = dense_pivot_replay(emb, cert["pivots"])
        carriers = [replay[f"v{j + 1}"] for j in range(n)]
        assert [[str(c[i]) for c in carriers] for i in range(r)] == cert["residual_matrix"]
        assert sorted(lab for _, lab in cert["pivots"]) == sorted(
            lab for lab in emb.column_order if lab.startswith("r")
        )
        for row_name, lab in cert["pivots"]:
            unit = emb.coordinate_names.index(row_name)
            assert replay[lab] == [int(i == unit) for i in range(emb.ambient_dim)]
        # independent spot check of one rank identity via the oracle
        dim = emb.ambient_dim
        helpers = [[(h >> i) & 1 for i in range(dim)] for h in emb.helper_vectors]
        carriers = [[(v >> i) & 1 for i in range(dim)] for v in emb.carrier_vectors]
        assert fraction_rank(helpers + carriers) - fraction_rank(helpers) == fraction_rank(
            [[matrix[i][j] for j in range(n)] for i in range(r)]
        )


def test_parse_matrix_text():
    rows = parse_matrix_text("# comment\n3 2\n1 -1\n-2 0\n-1 -1\n")
    assert rows == [[1, -1], [-2, 0], [-1, -1]]
    rows = parse_matrix_text("2 2\n+3 -3/4\n0 +7/2\n")
    assert rows == [[3, Fraction(-3, 4)], [0, Fraction(7, 2)]]


def test_parse_matrix_text_errors():
    with pytest.raises(ValueError):
        parse_matrix_text("")
    with pytest.raises(ValueError):
        parse_matrix_text("2 2\n1 0\n")
    with pytest.raises(ValueError):
        parse_matrix_text("1 2\n1 0 0\n")
    with pytest.raises(ValueError):
        parse_matrix_text("banana\n1\n")
    # Only an integer or p/q, with an optional sign, is an entry: an exponent
    # is refused before any number is built.
    for entry in ("1e10000000", "1.5", "3/-4", "0x10", "1_000", "inf"):
        with pytest.raises(ValueError, match="row 1: entries must be integers or p/q"):
            parse_matrix_text(f"1 1\n{entry}\n")
    # The header takes the same signed-integer syntax as the entries.
    for header in ("2 x", "2.0 1", "0x2 1", "1_0 1", "\u0661 1", "1 1/1"):
        with pytest.raises(ValueError, match="header must be two integers: rows cols"):
            parse_matrix_text(f"{header}\n1\n1\n")


def test_read_matrix_file_skips_byte_order_mark(tmp_path):
    path = tmp_path / "bom.mat"
    path.write_text("\ufeff" + "2 1\n1\n-1/2\n", encoding="utf-8")
    assert read_matrix_file(path) == [[1], [Fraction(-1, 2)]]
