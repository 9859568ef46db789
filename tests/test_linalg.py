import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from resonance.linalg import (
    EchelonBasis,
    ExactMatrix,
    _normalize_int_row,
    bareiss_rank,
    restrict,
    span_coefficients,
)

from kernel_helpers import closure, fundamental_circuit, is_independent, mask_rank
from oracles import (
    fraction_rank,
    mask_from_elements as M,
    mask_rank_oracle,
    rank_mod_p,
    span_coefficients_oracle,
)


def test_rank_empty():
    assert mask_rank([], 2) == 0


def test_rank_dependent_pair_sum():
    # chi{1} + chi{2} = chi{1,2} is the unique relation
    assert mask_rank([1, 2, 3], 2) == 2


def test_rank_three_doubletons_and_top():
    # {12, 13, 23, 123} carries the relation with coefficient 2 on the top set
    masks = [M([1, 2]), M([1, 3]), M([2, 3]), M([1, 2, 3])]
    assert mask_rank(masks, 3) == 3


def test_rank_against_fraction_oracle_random():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 6)
        k = rng.randint(0, 6)
        masks = [rng.randint(1, (1 << n) - 1) for _ in range(k)]
        assert mask_rank(masks, n) == mask_rank_oracle(masks, n)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        ints = [[rng.randint(-60, 60) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:  # force a dependency
            ints.append([a - 2 * b for a, b in zip(ints[0], ints[-1])])
        assert bareiss_rank(ints) == fraction_rank(ints)


def test_rank_monotone_and_submodular():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(2, 5)
        universe = list(range(1, 1 << n))
        s = set(rng.sample(universe, rng.randint(0, len(universe) // 2)))
        t = set(rng.sample(universe, rng.randint(0, len(universe) // 2)))
        rs, rt = mask_rank(s, n), mask_rank(t, n)
        assert rs <= mask_rank(s | t, n)
        assert mask_rank(s | t, n) + mask_rank(s & t, n) <= rs + rt


def test_rank_matches_modular_rank():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 6)
        masks = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(0, 7))]
        r = mask_rank(masks, n)
        for p in (11, 13, 17):  # all primes > 9 preserve ranks for n <= 6
            assert rank_mod_p(masks, n, p) == r


def test_is_independent():
    assert is_independent([], 2)
    assert not is_independent([1, 2, 3], 2)
    assert is_independent([1, 3], 2)


def test_closure_cases():
    universe = [1, 2, 3]
    assert closure([], universe, 2) == set()
    assert closure([1, 2], universe, 2) == {1, 2, 3}
    assert closure([3], universe, 2) == {3}


def test_closure_requires_membership():
    with pytest.raises(ValueError):
        closure([1], [2, 3], 2)


def test_fundamental_circuit_singletons():
    circ = fundamental_circuit([1, 2, 4], 3, 3)
    assert circ == frozenset({1, 2, 3})


def test_fundamental_circuit_rejects_member():
    with pytest.raises(ValueError):
        fundamental_circuit([1], 1, 2)


def test_fundamental_circuit_full_support():
    masks = [M([1, 2]), M([1, 3]), M([2, 3])]
    circ = fundamental_circuit(masks, M([1, 2, 3]), 3)
    assert circ == frozenset(masks) | {M([1, 2, 3])}


def test_fundamental_circuit_minimality():
    rng = random.Random(4)
    tried = 0
    while tried < 50:
        n = rng.randint(2, 5)
        universe = list(range(1, 1 << n))
        base = []
        basis = EchelonBasis()
        for h in rng.sample(universe, len(universe)):
            if basis.add([(h >> i) & 1 for i in range(n)]):
                base.append(h)
        if len(base) < 2:
            continue
        outside = [h for h in universe if h not in base and h in closure(base, universe, n)]
        if not outside:
            continue
        e = rng.choice(outside)
        circ = fundamental_circuit(base, e, n)
        support = sorted(circ - {e})
        assert set(support) <= set(base)
        assert e in closure(support, universe, n)
        for drop in support:
            reduced = [h for h in support if h != drop]
            assert e not in closure(reduced, universe, n)
        tried += 1


def _random_span_case(rng, dependent):
    """Random integer vectors with entries up to 60 in size, as embed
    produces; with ``dependent`` the last one combines two others."""
    size = rng.randint(1, 7)
    k = rng.randint(1, size)
    vecs = [[rng.randint(-60, 60) for _ in range(size)] for _ in range(k)]
    if dependent:
        a, b = rng.sample(range(k), 2) if k > 1 else (0, 0)
        vecs.append([rng.randint(-3, 3) * x + y for x, y in zip(vecs[a], vecs[b])])
    return size, vecs


def _combine(vecs, coeffs):
    return [sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(len(vecs[0]))]


def test_span_coefficients_independent_match_oracle():
    rng = random.Random(6)
    checked = 0
    while checked < 150:
        _, vecs = _random_span_case(rng, dependent=False)
        if fraction_rank(vecs) < len(vecs):
            continue
        target = _combine(vecs, [rng.randint(-5, 5) for _ in vecs])
        got = span_coefficients(vecs, target)
        assert got == span_coefficients_oracle(vecs, target)
        assert _combine(vecs, got) == target
        checked += 1


def test_span_coefficients_dependent_reproduce_target():
    rng = random.Random(7)
    for _ in range(150):
        _, vecs = _random_span_case(rng, dependent=True)
        target = _combine(vecs, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in vecs])
        got = span_coefficients(vecs, target)
        assert span_coefficients_oracle(vecs, target) is not None
        assert got is not None and _combine(vecs, got) == target


def test_span_coefficients_outside_span_is_none():
    rng = random.Random(8)
    checked = 0
    while checked < 150:
        size, vecs = _random_span_case(rng, dependent=rng.random() < 0.5)
        target = [rng.randint(-60, 60) for _ in range(size)]
        if fraction_rank(vecs + [target]) == fraction_rank(vecs):
            continue
        assert span_coefficients(vecs, target) is None
        assert span_coefficients_oracle(vecs, target) is None
        checked += 1


def test_span_coefficients_edge_cases():
    assert span_coefficients([], []) == []
    assert span_coefficients([[1, 0], [0, 1]], [0, 0]) == [0, 0]
    assert span_coefficients([[2, 4]], [1, 2]) == [Fraction(1, 2)]
    with pytest.raises(ValueError):
        span_coefficients([[1, 0]], [1, 0, 0])


def test_pivot_identity():
    ident = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert ident.pivot(0, 0).entries == ident.entries


def test_pivot_zero_entry_rejected():
    with pytest.raises(ValueError):
        ExactMatrix([[0, 1], [1, 0]]).pivot(0, 0)


def test_pivot_refuses_entries_other_than_one():
    # The pivot never scales a row, so it needs the entry to be exactly 1.
    for entry in (2, -1):
        with pytest.raises(ValueError, match=f"is {entry}, not 1"):
            ExactMatrix([[entry, 1], [1, 1]]).pivot(0, 0)


def test_pivot_changes_only_rows_nonzero_in_the_column():
    m = ExactMatrix([[1, 2, 0], [3, 1, 1], [0, 5, 7]])
    pivoted = m.pivot(0, 0)
    assert pivoted.entries == ExactMatrix([[1, 2, 0], [0, -5, 1], [0, 5, 7]]).entries
    assert pivoted.entries[2] is m.entries[2]


def test_pivot_preserves_column_matroid():
    rng = random.Random(5)
    for _ in range(30):
        rows, cols = 4, 6
        entries = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        m = ExactMatrix(entries)
        pivots = [(r, c) for r in range(rows) for c in range(cols) if m.entries[r][c] == 1]
        if not pivots:
            continue
        r, c = rng.choice(pivots)
        pivoted = m.pivot(r, c)
        for size in range(1, cols + 1):
            for subset in combinations(range(cols), size):
                before = bareiss_rank(
                    [[entries[i][j] for j in subset] for i in range(rows)]
                )
                after_rows = [[pivoted.entries[i][j] for j in subset] for i in range(rows)]
                assert bareiss_rank(after_rows) == before


def test_exact_matrix_rank():
    assert bareiss_rank([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == 4
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    # Columns are the masks 1, 2, 3 over n = 2: {1}, {2} and {1, 2}.
    assert bareiss_rank([[1, 0, 1], [0, 1, 1]]) == 2


def test_echelon_basis_tracks_rank():
    basis = EchelonBasis()
    assert basis.add((1, 0, 0))
    assert basis.add((1, 1, 0))
    assert not basis.add((0, 1, 0))  # already spanned
    assert basis.rank == 2
    assert not any(basis.residual((2, 3, 0)))
    assert any(basis.residual((0, 0, 1)))


def normalize_reference(row):
    """Divide by the gcd of a loop, sign from the first nonzero entry."""
    g = 0
    for x in row:
        g = gcd(g, x)
    if not g:
        return None
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row)


def test_normalize_int_row_matches_loop_gcd_reference():
    assert _normalize_int_row([0, 0, 0]) is None
    assert _normalize_int_row(()) is None
    assert _normalize_int_row([0, -4, 6]) == (0, 2, -3)
    assert _normalize_int_row([-5]) == (1,)
    assert _normalize_int_row((7,)) == (1,)
    assert _normalize_int_row([2, 3]) == (2, 3)
    rng = random.Random(16)
    kinds = set()
    for _ in range(2000):
        size = rng.randint(1, 6)
        scale = rng.choice((1, 1, 2, 6, -1, -3))
        row = [scale * rng.randint(-4, 4) * rng.randint(0, 1) for _ in range(size)]
        want = normalize_reference(row)
        for given in (row, tuple(row)):
            got = _normalize_int_row(given)
            assert got == want
            assert got is None or type(got) is tuple
        if want is not None:
            lead = next(x for x in row if x)
            kinds.add((size == 1, lead < 0, gcd(*row) > 1))
    assert len(kinds) == 8


def test_restrict_keeps_order_drops_zeros_and_normalizes():
    h = (0, 2, 1)  # normalized, pivot at position 1
    same = (1, 0, 5)
    rows = [(1, 1, 0), same, (0, 4, 2), (0, 1, 1), (3, 0, 0), (0, -2, -1)]
    out = restrict(rows, h)
    # 2*(1,1,0) - 1*h, 2*(0,1,1) - 1*h; rows proportional to h are dropped.
    assert out == [(2, 0, -1), same, (0, 0, 1), (3, 0, 0)]
    assert out[1] is same and out[3] is rows[4]
    assert restrict([], h) == []
    rng = random.Random(11)
    for _ in range(200):
        size = rng.randint(1, 6)
        h = (0,) * size
        while not any(h):
            h = tuple(rng.randint(-4, 4) for _ in range(size))
        if next(x for x in h if x) < 0:
            h = tuple(-x for x in h)
        h = tuple(x // gcd(*h) for x in h)
        p = next(j for j, x in enumerate(h) if x)
        rows = [tuple(rng.randint(-4, 4) for _ in range(size)) for _ in range(6)]
        out = iter(restrict(rows, h))
        for r in rows:
            if not r[p]:
                assert next(out) is r
            elif fraction_rank([h, r]) == 2:
                w = next(out)
                assert w[p] == 0 and fraction_rank([h, r, w]) == 2
                assert gcd(*w) == 1 and next(x for x in w if x) > 0
        assert next(out, None) is None
