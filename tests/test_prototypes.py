import random
from itertools import permutations
from math import factorial

import pytest

from resonance.errors import GuardExceeded
from resonance.nbc import betti_via_nbc, is_nbc
from resonance.prototypes import (
    Partition,
    Prototype,
    PrototypeClass,
    betti_via_prototypes,
    classify,
    coefficients,
    enumerate_prototypes,
    partitions_into_blocks,
    prototype_count,
    realize,
    singleton_partition,
)
from resonance.stirling import stirling2

from kernel_helpers import tuple_prototype


def random_partition(rng, size, k):
    """Any partition of {1..size} into k blocks (rejection on surjectivity)."""
    while True:
        labels = [rng.randrange(k) for _ in range(size)]
        if len(set(labels)) == k:
            blocks = [0] * k
            for e, lab in enumerate(labels):
                blocks[lab] |= 1 << e
            return Partition(size, tuple(sorted(blocks)))


def test_prototype_counts():
    assert sum(1 for _ in enumerate_prototypes(2, 3)) == 6
    assert sum(1 for _ in enumerate_prototypes(2, 4)) == 6
    assert sum(1 for _ in enumerate_prototypes(3, 8)) == 5040
    assert prototype_count(3, 8) == 5040


def test_prototypes_in_lexicographic_order():
    images = [p.images for p in enumerate_prototypes(2, 3)]
    assert images == sorted(images)
    assert len(set(images)) == len(images)


def test_prototype_validation():
    with pytest.raises(ValueError):
        Prototype(2, 3, (1, 1))  # not injective
    with pytest.raises(ValueError):
        Prototype(2, 3, (0, 1))  # empty image
    with pytest.raises(ValueError):
        Prototype(2, 5, (1, 2, 3, 1))  # k > 2^i


def test_partition_enumeration_counts_are_stirling():
    for size in range(1, 8):
        for k in range(1, size + 1):
            assert sum(1 for _ in partitions_into_blocks(size, k)) == stirling2(size, k)


def test_partition_blocks_validated():
    with pytest.raises(ValueError):
        Partition(3, (1, 2))  # does not cover
    with pytest.raises(ValueError):
        Partition(3, (3, 5))  # overlap
    with pytest.raises(ValueError):
        Partition(3, (4, 3))  # not ascending


def test_realize_on_singletons():
    p = Prototype(2, 3, (1, 2))  # f(1) = {1}, f(2) = {2}
    assert realize(p, singleton_partition(3)) == (1, 2)
    p = Prototype(2, 3, (3, 1))  # f(1) = {1,2}, f(2) = {1}
    assert realize(p, singleton_partition(3)) == (3, 1)


def test_realize_block_count_mismatch():
    p = Prototype(2, 3, (1, 2))
    with pytest.raises(ValueError):
        realize(p, singleton_partition(4))


def test_round_trip_through_partitions():
    rng = random.Random(21)
    for _ in range(100):
        i = rng.randint(1, 3)
        k = rng.randint(i + 1, 2**i)
        protos = list(enumerate_prototypes(i, k))
        p = rng.choice(protos)
        n = rng.randint(k - 1, 8)
        part = random_partition(rng, n + 1, k)
        tup = realize(p, part)
        if 0 in tup or len(set(tup)) != len(tup):
            continue  # degenerate prototypes never round-trip
        p2, part2 = tuple_prototype(tup, n)
        assert p2 == p
        assert part2 == part


def test_classification_counts_match_known_coefficients():
    expected = {
        (2, 3): 4,   # 2 of 3 unordered maps survive
        (2, 4): 6,   # every map survives at k = 2^i
        (3, 4): 54,  # 9 * 3!
    }
    for (i, k), count in expected.items():
        got = sum(
            1 for p in enumerate_prototypes(i, k) if classify(p) is PrototypeClass.FUNCTIONAL
        )
        assert got == count


def test_degenerate_realizations_are_broken():
    # images {1,2},{3},{1,2,3} never separate positions 1 and 2
    p = Prototype(3, 4, (3, 4, 7))
    tup = realize(p, singleton_partition(4))
    assert len(set(tup)) < 3
    assert classify(p) is PrototypeClass.BROKEN


def test_coefficients_known_rows():
    assert coefficients(1).coefficients == {2: 1}
    assert coefficients(2).coefficients == {3: 2, 4: 3}
    assert coefficients(3).coefficients == {4: 9, 5: 80, 6: 345, 7: 840, 8: 840}


def test_coefficients_guard():
    with pytest.raises(GuardExceeded):
        coefficients(4)


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
        p = Prototype(i, k, images)
        canonical = classify(p)
        for _ in range(5):
            n = rng.randint(k - 1, 8)
            part = random_partition(rng, n + 1, k)
            tup = realize(p, part)
            if 0 in tup or len(set(tup)) != len(tup):
                broken_here = True
            else:
                broken_here = not is_nbc(tup, n)
            assert broken_here == (canonical is PrototypeClass.BROKEN)
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


def test_stream_guard_for_width_four():
    with pytest.raises(GuardExceeded):
        list(enumerate_prototypes(4, 16))
    # small k under the stream limit is allowed
    first = next(iter(enumerate_prototypes(4, 5)))
    assert first.width == 4
