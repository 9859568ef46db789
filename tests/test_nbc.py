import random
from itertools import combinations

import pytest

from resonance import arrangement, nbc
from resonance.errors import GuardExceeded
from resonance.nbc import betti_via_nbc, charpoly_via_nbc, is_broken_circuit, is_nbc
from resonance.arrangement import (
    MAX_01_DETERMINANT,
    count_points_avoiding,
    finite_field_charpoly,
    region_count,
    whitney_charpoly,
)
from resonance.stirling import betti3_closed
from resonance.table1 import GOLDEN_BETTI

from kernel_helpers import NbcSet, betti_via_integer_nbc, is_independent, nbc_extend
from oracles import (
    broken_circuits_oracle,
    mask_from_elements as M,
    max_abs_det_01,
    nbc_counts_oracle,
)


def test_broken_pairs_are_disjoint_pairs():
    assert is_broken_circuit([1, 2], 2)          # {1},{2} complete to {1,2}
    assert not is_broken_circuit([1, 3], 2)      # intersecting pair
    for n in (2, 3, 4):
        for a, b in combinations(range(1, 1 << n), 2):
            assert is_broken_circuit([a, b], n) == (a & b == 0)


def test_broken_triple_from_doubletons():
    masks = [M([1, 2]), M([1, 3]), M([2, 3])]
    assert is_broken_circuit(masks, 3)


def test_broken_circuit_matches_definition_oracle():
    for n in (2, 3):
        oracle = broken_circuits_oracle(n)
        universe = range(1, 1 << n)
        for size in (1, 2, 3):
            for cand in combinations(universe, size):
                assert is_broken_circuit(cand, n) == (frozenset(cand) in oracle)


def test_is_nbc_cases():
    assert is_nbc([], 2)
    assert not is_nbc([1, 2], 2)
    assert not is_nbc([M([1, 2]), M([1, 3]), M([1])], 3)


def test_nbc_extend_reference_cases():
    assert nbc_extend([], 1, 2)
    assert not nbc_extend([1], 2, 2)   # {1,2} enters the closure above 2
    assert nbc_extend([1], 3, 2)


def test_nbc_extend_requires_order():
    with pytest.raises(ValueError):
        nbc_extend([2], 1, 2)


def test_nbc_extend_equals_is_nbc_exhaustive():
    for n in (2, 3):
        universe = list(range(1, 1 << n))
        for size in range(0, 4):
            for s in combinations(universe, size):
                if not is_nbc(s, n):
                    continue
                start = s[-1] + 1 if s else 1
                for e in range(start, 1 << n):
                    assert nbc_extend(list(s), e, n) == is_nbc(list(s) + [e], n)


def test_nbc_extend_equals_is_nbc_sampled():
    rng = random.Random(9)
    for n in (4, 5):
        universe = list(range(1, 1 << n))
        checked = 0
        while checked < 300:
            size = rng.randint(0, 3)
            s = sorted(rng.sample(universe, size))
            if not is_nbc(s, n):
                continue
            bigger = [e for e in universe if not s or e > s[-1]]
            if not bigger:
                continue
            e = rng.choice(bigger)
            assert nbc_extend(s, e, n) == is_nbc(s + [e], n)
            checked += 1


def test_nbcset_validates():
    NbcSet((1, 3), 2)
    with pytest.raises(ValueError):
        NbcSet((1, 2), 2)
    with pytest.raises(ValueError):
        NbcSet((3, 1), 2)


def test_counts_match_bruteforce_filter():
    # n = 4 checks the one-copy-per-direction search beyond n = 3 (3 s).
    for n in (2, 3, 4):
        assert betti_via_nbc(n, n) == nbc_counts_oracle(n)


def test_enumerated_sets_are_independent():
    # sampled version of the invariant: every NBC set is independent
    rng = random.Random(10)
    n = 4
    universe = list(range(1, 1 << n))
    for _ in range(200):
        s = sorted(rng.sample(universe, rng.randint(1, 4)))
        if is_nbc(s, n):
            assert is_independent(s, n)


def test_betti_rows_from_table():
    assert betti_via_nbc(3, 3) == [1, 7, 15, 9]
    assert betti_via_nbc(5, 4) == [1, 31, 375, 2130, 5270]
    assert betti_via_nbc(7, 3) == [1, 127, 7035, 215439]


def test_betti_matches_whitney_coefficients():
    for n in range(1, 5):
        assert tuple(betti_via_nbc(n, n)) == whitney_charpoly(n).betti


def test_charpoly_small():
    assert charpoly_via_nbc(2).coeffs == (2, -3, 1)
    assert charpoly_via_nbc(3).coeffs == (-9, 15, -7, 1)


def test_region_counts_through_depth_five():
    for n, r in ((1, 2), (2, 6), (3, 32), (4, 370), (5, 11292)):
        assert region_count(charpoly_via_nbc(n)) == r


def test_guards():
    with pytest.raises(GuardExceeded):
        charpoly_via_nbc(7)
    with pytest.raises(GuardExceeded):
        betti_via_nbc(8, 4)
    with pytest.raises(GuardExceeded):
        betti_via_nbc(7, 5)
    with pytest.raises(ValueError):
        betti_via_nbc(3, 4)
    with pytest.raises(ValueError):
        betti_via_nbc(0, 0)


def test_parallel_workers_match_serial():
    serial = betti_via_nbc(5, 3)
    for workers in (2, 3):
        assert betti_via_nbc(5, 3, workers=workers) == serial


def test_pool_size_bounded_by_jobs_and_cores(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(arrangement, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(arrangement.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert betti_via_nbc(3, 2, workers=10**6) == betti_via_nbc(3, 2) == [1, 7, 15]
    assert betti_via_nbc(2, 2, workers=10**6) == betti_via_nbc(2, 2)
    assert count_points_avoiding(3, 5, workers=10**6) == count_points_avoiding(3, 5)
    assert count_points_avoiding(3, 3, workers=10**6) == count_points_avoiding(3, 3)
    # Four usable cores; A_2 has three root jobs; the point count at q has
    # one job per x_2 in 1 .. q-1.
    assert sizes == [4, 3, 4, 2]


def test_block_search_matches_the_integer_search_at_every_depth():
    for n, deepest in ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 4)):
        reference = betti_via_integer_nbc(n, deepest)
        for depth in range(deepest + 1):
            assert betti_via_nbc(n, depth) == reference[: depth + 1]


def test_block_cuts_and_workers_do_not_change_counts(monkeypatch):
    # One pair per block cuts at every node; 10**9 never cuts.  b_4(A_6)
    # also covers b_3(A_6), and its depth-2 nodes are cut into blocks.
    cases = [(n, n) for n in range(1, 6)] + [(6, 4)]
    want = {(n, d): betti_via_nbc(n, d) for n, d in cases}
    for n in range(1, 6):
        assert want[n, n] == list(whitney_charpoly(n).betti)
    assert want[6, 4] == [1] + [GOLDEN_BETTI[i][6] for i in range(1, 5)]
    for n, d in cases:
        assert betti_via_nbc(n, d, workers=2) == want[n, d], n
    # One worker runs the jobs in this process, so the patched size is the
    # one used, whatever the pool's start method.
    for block in (1, 10**9):
        monkeypatch.setattr(nbc, "_BLOCK_PAIRS", block)
        for n, d in cases:
            assert betti_via_nbc(n, d) == want[n, d], (block, n)


def test_a8_depth_3_matches_the_closed_form():
    # n = 8 has the largest prime, 79: (p-1)^2 = 6084 is near the int16
    # limit, and a depth-3 search keys children by nonzero parent indices.
    assert betti_via_nbc(8, 3, cap=None)[3] == betti3_closed(8)


def test_nbc_prime_is_the_first_prime_past_the_hadamard_bound():
    def is_prime(q):
        return q > 1 and all(q % d for d in range(2, q))

    # |det| of an n x n 0/1 matrix is at most (n+1)^((n+1)/2) / 2^n, so
    # q exceeds that bound iff q^2 * 4^n > (n+1)^(n+1).
    def above_bound(q, n):
        return q * q * 4**n > (n + 1) ** (n + 1)

    for n in range(1, 9):
        p = nbc._nbc_prime(n)
        assert is_prime(p) and above_bound(p, n)
        assert not any(is_prime(q) and above_bound(q, n) for q in range(p))
        assert not above_bound(MAX_01_DETERMINANT[n], n)
    assert [nbc._nbc_prime(n) for n in range(1, 9)] == [2, 2, 3, 5, 7, 17, 37, 79]
    for n in range(1, 5):
        assert max_abs_det_01(n) == MAX_01_DETERMINANT[n]


@pytest.mark.long_run
def test_a7_cells_beyond_the_guard_match_ff():
    assert betti_via_nbc(7, 6, workers=2, cap=None)[5:7] == list(finite_field_charpoly(7).betti[5:7])


@pytest.mark.parametrize(
    "masks, n",
    [([8], 3), ([0], 3), ([-1, 3], 3), ([1], 0), ([3, 5, 9], 3), ([True], 3)],
)
def test_is_nbc_validates_every_mask(masks, n):
    with pytest.raises(ValueError):
        is_nbc(masks, n)


def test_is_nbc_validates_n_without_masks():
    for n in (0, -5, 64):
        with pytest.raises(ValueError, match="ground set size"):
            is_nbc([], n)
    assert is_nbc([], 3)
