import fractions
import random
from itertools import permutations
from math import factorial

import pytest

from resonance import linalg, prototypes
from resonance.errors import InternalCheckError
from resonance.linalg import _closing_points
from resonance.nbc import betti_via_nbc
from resonance.prototypes import _functional_counts, betti_via_prototypes, coefficients

from kernel_helpers import is_nbc, realize, tuple_prototype
from oracles import fraction_rank, mask_vec, partitions_into_blocks, span_coefficients_oracle


def random_partition(rng, size, k):
    """Any partition of {1..size} into k blocks (rejection on surjectivity)."""
    while True:
        labels = [rng.randrange(k) for _ in range(size)]
        if len(set(labels)) == k:
            blocks = [0] * k
            for e, lab in enumerate(labels):
                blocks[lab] |= 1 << e
            return tuple(sorted(blocks))


def singletons(k):
    return tuple(1 << j for j in range(k))


def broken(i, images, blocks):
    """Whether the prototype's realization on ``blocks`` is degenerate or
    contains a broken circuit of A_n, where n+1 is the top element."""
    tup = realize(i, images, blocks)
    n = blocks[-1].bit_length() - 1
    return 0 in tup or len(set(tup)) != i or not is_nbc(tup, n)


# Functional (i, k)-prototypes per k, before division by i!.
_KNOWN_COUNTS = {
    1: ((2, 1),),
    2: ((3, 4), (4, 6)),
    3: ((4, 54), (5, 480), (6, 2070), (7, 5040), (8, 5040)),
}


def test_prototype_counts():
    for i, counts in _KNOWN_COUNTS.items():
        assert _functional_counts(i) == counts


def test_realize_on_singletons():
    assert realize(2, (1, 2), singletons(3)) == (1, 2)  # f(1) = {1}, f(2) = {2}
    assert realize(2, (3, 1), singletons(3)) == (3, 1)  # f(1) = {1,2}, f(2) = {1}


def test_realize_block_count_mismatch():
    with pytest.raises(ValueError):
        realize(2, (1, 2), singletons(4))


def test_round_trip_through_partitions():
    rng = random.Random(21)
    for _ in range(100):
        i = rng.randint(1, 3)
        k = rng.randint(i + 1, 2**i)
        images = rng.choice(list(permutations(range(1, 2**i), k - 1)))
        n = rng.randint(k - 1, 8)
        part = random_partition(rng, n + 1, k)
        tup = realize(i, images, part)
        if 0 in tup or len(set(tup)) != len(tup):
            continue  # degenerate prototypes never round-trip
        assert tuple_prototype(tup, n) == (images, part)


def test_classification_counts_match_known_coefficients():
    """Every prototype through i = 3, 13650 of them at i = 3, judged one by
    one by ``is_nbc`` on its realized tuple."""
    for i in (1, 2, 3):
        expected = {
            k: sum(
                1
                for images in permutations(range(1, 2**i), k - 1)
                if not broken(i, images, singletons(k))
            )
            for k in range(i + 1, 2**i + 1)
        }
        assert dict(_functional_counts(i)) == expected
    assert expected[4] == 54  # 9 * 3!
    assert expected[8] == 5040  # every map survives at k = 2^i


def test_degenerate_realizations_are_broken():
    # images {1,2},{3},{1,2,3} never separate positions 1 and 2
    images = (3, 4, 7)
    for size in range(4, 8):
        for part in partitions_into_blocks(size, 4):
            assert len(set(realize(3, images, part))) < 3
    assert broken(3, images, singletons(4))


def test_coefficients_known_rows():
    assert coefficients(1).coefficients == {2: 1}
    assert coefficients(2).coefficients == {3: 2, 4: 3}
    assert coefficients(3).coefficients == {4: 9, 5: 80, 6: 345, 7: 840, 8: 840}


def test_census_refuses_i4_before_any_work(monkeypatch):
    def no_census(i):
        raise AssertionError(f"the census ran for i={i}")

    monkeypatch.setattr(prototypes, "_functional_counts", no_census)
    with pytest.raises(ValueError, match="runs to i = 3, got i=4"):
        coefficients(4)
    with pytest.raises(ValueError, match="runs to i = 3, got i=5"):
        betti_via_prototypes(5, 9)


def test_betti_via_prototypes_table_cells():
    assert betti_via_prototypes(2, 5) == 375
    assert betti_via_prototypes(3, 7) == 215439
    assert betti_via_prototypes(3, 2) == 0


def test_partition_independence_of_classification():
    rng = random.Random(22)
    seen = 0
    while seen < 200:
        i = rng.randint(1, 3)
        k = rng.randint(i + 1, 2**i)
        images = tuple(rng.sample(range(1, 2**i), k - 1))
        canonical = broken(i, images, singletons(k))
        for _ in range(5):
            n = rng.randint(k - 1, 8)
            part = random_partition(rng, n + 1, k)
            assert broken(i, images, part) == canonical
        seen += 1


def test_counting_identity_ordered_tuples():
    # i! * b_i equals the count of ordered i-tuples of distinct
    # hyperplanes whose underlying set is NBC, which is what functional
    # prototypes with partitions enumerate.
    for n in (2, 3, 4):
        for i in (1, 2, 3):
            if i > n:
                continue
            universe = range(1, 1 << n)
            direct = sum(1 for tup in permutations(universe, i) if is_nbc(tup, n))
            assert direct == factorial(i) * betti_via_nbc(n, i)[i]
            via_census = factorial(i) * betti_via_prototypes(i, n)
            assert direct == via_census


def test_census_matches_nbc_counts_through_six():
    for n in (5, 6):
        for i in (1, 2, 3):
            assert betti_via_prototypes(i, n) == betti_via_nbc(n, i)[i]


def test_coefficient_bound_tight_at_top():
    from math import comb

    for i in (1, 2, 3):
        combo = coefficients(i)
        k = 2**i
        bound = comb(2**i - 1, k - 1) * factorial(k - 1) // factorial(i)
        assert combo.coefficients[k] == bound


def _counting_closers(monkeypatch, corrupt=None):
    """Record every span solve of the census; ``corrupt(call, points)``
    may replace the closing points that call returns."""
    calls = []

    def closers(vectors):
        points = _closing_points(vectors)
        calls.append(tuple(vectors))
        return corrupt(len(calls) - 1, points) if corrupt else points

    monkeypatch.setattr(prototypes, "_closing_points", closers)
    _functional_counts.cache_clear()
    return calls


@pytest.mark.parametrize("i, solves", [(2, 4), (3, 372)])
def test_census_solves_each_image_set_and_row_subset_once(monkeypatch, i, solves):
    calls = _counting_closers(monkeypatch)
    try:
        counts = _functional_counts(i)
    finally:
        _functional_counts.cache_clear()
    assert counts == _KNOWN_COUNTS[i]
    # Image sets whose realized rows are nonzero and distinct, found one
    # prototype at a time; each has 2^i - i - 1 row subsets of size >= 2.
    valid = set()
    for k in range(i + 1, 2**i + 1):
        for images in permutations(range(1, 2**i), k - 1):
            tup = realize(i, images, singletons(k))
            if 0 not in tup and len(set(tup)) == i:
                valid.add(tuple(sorted(images)))
    assert len(calls) == len(valid) * (2**i - i - 1) == solves
    assert {len(vectors) for vectors in calls} == set(range(2, i + 1))


@pytest.mark.parametrize("i, solves", [(2, 4), (3, 372)])
def test_census_closes_rows_with_one_basis_per_solve_and_no_fractions(monkeypatch, i, solves):
    """The closing points come from one integer elimination per call: the
    census never solves a target for its coefficients, and no Fraction is
    made."""
    built = []

    class CountingBasis(linalg.EchelonBasis):
        __slots__ = ()

        def __init__(self):
            built.append(self)
            super().__init__()

    def refuse(*args):
        raise AssertionError("the census solved for coefficients")

    monkeypatch.setattr(linalg, "EchelonBasis", CountingBasis)
    monkeypatch.setattr(linalg, "integer_coefficients", refuse)
    monkeypatch.setattr(fractions, "Fraction", refuse)
    calls = _counting_closers(monkeypatch)
    try:
        counts = _functional_counts(i)
    finally:
        _functional_counts.cache_clear()
    assert counts == _KNOWN_COUNTS[i]
    assert len(built) == len(calls) == solves


def test_closing_points_of_the_census_inputs_match_the_definition(monkeypatch):
    """Every row subset the census solves at i = 3, against the 0/1 cube:
    the points whose oracle coefficients exist and are all nonzero, and
    none when the rows are dependent."""
    calls = _counting_closers(monkeypatch)
    try:
        _functional_counts(3)
    finally:
        _functional_counts.cache_clear()
    assert len(calls) == 372
    for vectors in calls:
        size = len(vectors[0])
        expected = []
        if fraction_rank(vectors) == len(vectors):
            for h in range(1, 1 << size):
                coeffs = span_coefficients_oracle(vectors, mask_vec(h, size))
                if coeffs is not None and all(coeffs):
                    expected.append(tuple(mask_vec(h, size)))
        assert sorted(_closing_points(vectors)) == sorted(expected), vectors


@pytest.mark.parametrize("i", [2, 3])
@pytest.mark.parametrize("how", ["drop", "add"])
def test_corrupted_closers_of_one_image_set_fail_the_census(monkeypatch, i, how):
    """Each valid image set makes 2^i - i - 1 solves in a row.

    "drop" empties the solves of the first image set, whose rows are the
    unit vectors: its i! orderings, all broken, lose every closer and
    count as functional.  "add" corrupts the image set of all 2^i - 1
    patterns, the only one of its size, whose orderings are all
    functional: the all-ones point it gains exceeds each of its rows, so
    every ordering turns broken.
    """
    first = 2**i - i - 1

    def corrupt(call, points):
        if how == "drop":
            return [] if call < first else points
        if len(calls[call][0]) == 2**i - 1:
            return points + [(1,) * (2**i - 1)]
        return points

    calls = _counting_closers(monkeypatch, corrupt)
    try:
        counts = dict(_functional_counts(i))
        with pytest.raises(InternalCheckError):
            coefficients(i)
    finally:
        _functional_counts.cache_clear()
    known = dict(_KNOWN_COUNTS[i])
    if how == "drop":
        assert counts[i + 1] == known[i + 1] + factorial(i)
    else:
        assert counts[2**i] == 0 < known[2**i]
    assert all(counts[k] == known[k] for k in known if k not in (i + 1, 2**i))


def test_is_nbc_ignores_the_order_of_its_masks():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 6)
        size = rng.randint(1, min(4, 2**n - 1))
        masks = rng.sample(range(1, 1 << n), size)
        verdict = is_nbc(masks, n)
        for order in permutations(masks):
            assert is_nbc(order, n) == verdict


@pytest.mark.parametrize("n", [0, -1])
def test_betti_via_prototypes_rejects_nonpositive_n(n):
    with pytest.raises(ValueError, match="n must be positive"):
        betti_via_prototypes(2, n)
