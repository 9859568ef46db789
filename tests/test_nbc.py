import concurrent.futures
import random
from itertools import combinations

import numpy as np
import pytest

from resonance import arrangement, nbc
from resonance.errors import GuardExceeded
from resonance.nbc import betti_via_nbc, charpoly_via_nbc
from resonance.arrangement import (
    MAX_01_DETERMINANT,
    count_points_avoiding,
    finite_field_charpoly,
    region_count,
    whitney_charpoly,
)
from resonance.stirling import betti3_closed
from resonance.table1 import GOLDEN_BETTI, GOLDEN_REGIONS

from kernel_helpers import (
    NbcSet,
    betti_via_integer_nbc,
    is_broken_circuit,
    is_independent,
    is_nbc,
    nbc_extend,
)
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
    # n = 4 with every subset of size 1..4 (1940 candidates) reaches spans
    # of up to 15 nonzero 0/1 points; n <= 3 reaches at most 7.
    for n in (2, 3, 4):
        oracle = broken_circuits_oracle(n)
        universe = range(1, 1 << n)
        for size in (1, 2, 3, 4):
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

    # run_jobs imports the pool class when it starts one, so it reads
    # the patched attribute of concurrent.futures.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(arrangement.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert betti_via_nbc(3, 2, workers=10**6) == betti_via_nbc(3, 2) == [1, 7, 15]
    assert betti_via_nbc(2, 2, workers=10**6) == betti_via_nbc(2, 2)
    assert arrangement._point_counts(3, [5], 10**6) == [count_points_avoiding(3, 5)]
    assert arrangement._point_counts(3, [3], 10**6) == [count_points_avoiding(3, 3)]
    # Four usable cores; A_2 has three root jobs; the point count at q has
    # 8 strided pieces of x_2 per worker, but at most q - 1.
    assert sizes == [4, 3, 4, 2]


def test_block_search_matches_the_integer_search_at_every_depth():
    for n, deepest in ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 4)):
        reference = betti_via_integer_nbc(n, deepest)
        for depth in range(deepest + 1):
            assert betti_via_nbc(n, depth) == reference[: depth + 1]


def test_block_cuts_and_workers_do_not_change_counts(monkeypatch):
    # One pair per block cuts at every node; 10**9 never cuts.  b_4(A_6)
    # also covers b_3(A_6), and its depth-2 nodes are cut into blocks.
    # chi(A_6), whose rank-6 level is counted from node sizes, is left out
    # of the one-pair run, which would take too long on it.  b_3(A_7), at
    # p = 5 on int8 rows, and chi(A_6), at p = 17 on int16 rows, run cut at
    # 64 pairs and uncut.
    cases = [(n, n) for n in range(1, 6)] + [(6, 4)]
    full = cases + [(6, 6)]
    want = {(n, d): betti_via_nbc(n, d) for n, d in full + [(7, 3)]}
    for n in range(1, 6):
        assert want[n, n] == list(whitney_charpoly(n).betti)
    assert want[6, 4] == [1] + [GOLDEN_BETTI[i][6] for i in range(1, 5)]
    assert want[7, 3][3] == betti3_closed(7)
    for n, d in full:
        assert betti_via_nbc(n, d, workers=2) == want[n, d], n
    # One worker runs the jobs in this process, so the patched size is the
    # one used, whatever the pool's start method.
    for block, runs in ((1, cases), (64, [(6, 6), (7, 3)]), (10**9, full + [(7, 3)])):
        monkeypatch.setattr(nbc, "_BLOCK_PAIRS", block)
        for n, d in runs:
            assert betti_via_nbc(n, d) == want[n, d], (block, n)


def test_one_field_serves_every_root(monkeypatch):
    # b_3(A_5) runs at p = 5 on int8 rows, chi(A_6) at p = 17 on int16.
    built = []

    def field(n, depth):
        built.append(_Field(n, depth))
        return built[-1]

    _Field = nbc._Field
    monkeypatch.setattr(nbc, "_Field", field)
    assert betti_via_nbc(5, 3) == [1] + [GOLDEN_BETTI[i][5] for i in range(1, 4)]
    assert sum(betti_via_nbc(6, 6)) == GOLDEN_REGIONS[6]
    assert [(f.n, f.p, f.dtype) for f in built] == [(5, 5, np.int8), (6, 17, np.int16)]


def _at_the_prime_of_n(monkeypatch):
    """Make every search run on the field of its full depth, p = _nbc_prime(n).
    The class itself stays, so a pool can pickle its fields."""
    init = nbc._Field.__init__
    monkeypatch.setattr(nbc._Field, "__init__", lambda f, n, depth: init(f, n, n))


def test_the_depth_prime_counts_what_the_prime_of_n_counts(monkeypatch):
    # A search to depth d reads ranks of at most d + 1 normals.  Through
    # depth 4 its prime is at most 7, while n = 6 and 7 have 17 and 37.
    want = {(n, d): betti_via_nbc(n, d) for n in range(1, 8) for d in range(min(n, 4) + 1)}
    _at_the_prime_of_n(monkeypatch)
    for (n, d), counts in want.items():
        assert betti_via_nbc(n, d) == counts, (n, d)
    assert want[7, 4] == [1] + [GOLDEN_BETTI[i][7] for i in range(1, 5)]


def test_field_prime_and_lanes_follow_the_depth():
    # |det| of a k x k 0/1 matrix is at most (k+1)^((k+1)/2) / 2^k.
    for n in range(1, 9):
        for depth in range(1, n + 1):
            f = nbc._Field(n, depth)
            k = min(depth + 1, n)
            assert f.p == nbc._nbc_prime(k) and f.p * f.p * 4**k > (k + 1) ** (k + 1)
            assert MAX_01_DETERMINANT[k] < f.p
            assert (f.dtype == np.int8) == (f.p * f.p - 1 < 128)
            assert f.inverse.dtype == f.dtype
            assert [x * int(f.inverse[x]) % f.p for x in range(1, f.p)] == [1] * (f.p - 1)
            if depth <= 4:
                assert f.dtype == np.int8, (n, depth)


def test_field_key_is_the_base_p_value_below_2_63():
    # int64 arithmetic that overflows wraps silently, so each key is checked
    # against Python ints, up to the largest key a block can form: every
    # entry p - 1 at the last row a block can hold (its last node starts
    # below max_rows and holds fewer than 2^n rows).  An int8 row's entry
    # j < 8 is a nibble of the key's low 32 bits, at bit 8j for j < 4 and
    # 8j - 28 above; an int16 row's entries are base-p digits.
    rng = random.Random(24)
    widths = set()
    for n in range(1, 9):
        for depth in sorted({2, 4, n}):
            f = nbc._Field(n, depth)
            p = f.p
            widths.add(f.dtype)
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(200)] + [[p - 1] * n]
            array = np.zeros((len(rows), nbc._MAX_N), dtype=f.dtype)
            array[:, :n] = rows
            last = f.max_rows + (1 << n) - 1
            parents = [rng.randrange(last) for _ in rows[1:]] + [last]
            if f.dtype == np.int8:
                low = [sum(e << (8 * j if j < 4 else 8 * j - 28) for j, e in enumerate(row)) for row in rows]
                want = [key + (parent << 32) for key, parent in zip(low, parents)]
            else:
                digits = [sum(e * p ** (n - 1 - j) for j, e in enumerate(row)) for row in rows]
                want = [key + parent * p**n for key, parent in zip(digits, parents)]
            assert f.key(array, np.array(parents)).tolist() == want, (n, depth)
            assert want[-1] < 2**63, (n, depth)
    assert widths == {np.int8, np.int16}


def test_leads_and_scale_match_their_row_by_row_meaning():
    # Both read a row of 8 entries as int64 words.  Entries go up to p - 1
    # and factors up to p, the largest the restriction scales by: at
    # p = 11 on int8 and p = 79 (n = 8 at full depth) on int16.
    rng = np.random.default_rng(7)
    for p, dtype in ((11, np.int8), (79, np.int16)):
        rows = rng.integers(0, p, size=(2000, nbc._MAX_N)).astype(dtype)
        rows[rng.random(rows.shape) < 0.7] = 0
        rows = rows[rows.any(1)]
        want = [1 + next(j for j, e in enumerate(row) if e) for row in rows.tolist()]
        assert nbc._leads(rows).tolist() == want
        factors = rng.integers(0, p + 1, size=len(rows)).astype(dtype)
        scaled = rows.copy()
        nbc._scale(scaled, factors)
        assert scaled.tolist() == [[e * c for e in row] for row, c in zip(rows.tolist(), factors.tolist())]


def test_last_copies_match_a_python_reference():
    def reference(keys):
        last = {key: pos for pos, key in enumerate(keys.tolist())}
        return sorted(last.values())

    rng = np.random.default_rng(24)
    int64 = np.iinfo(np.int64)
    for size, distinct in ((2000, 5), (2000, 300), (3000, 3000), (50, 1)):
        pool = rng.integers(int64.min, int64.max, size=distinct, dtype=np.int64, endpoint=True)
        keys = pool.take(rng.integers(0, distinct, size=size))
        assert nbc._last_copies(keys).tolist() == reference(keys), (size, distinct)
    for keys in ([], [7]):
        keys = np.array(keys, dtype=np.int64)
        assert nbc._last_copies(keys).tolist() == reference(keys)


def test_rank_n_count_leaves_the_lower_levels_unchanged():
    # The full-depth search counts the rank-n level from the sizes of the
    # nodes at depth n - 2 instead of forming it; every lower level is the
    # one the search to depth n - 1 forms and counts.
    for n in range(2, 7):
        assert betti_via_nbc(n, n)[:n] == betti_via_nbc(n, n - 1), n


def test_a8_depth_3_matches_the_closed_form(monkeypatch):
    # Its depth prime is 5.  At n = 8's own prime, 79, the restricted
    # lanes reach p^2 - 1 = 6240 of int16's 32767, and a depth-3 search
    # keys children by nonzero parent indices times 79^8.
    want = betti3_closed(8)
    assert betti_via_nbc(8, 3, cap=None)[3] == want
    _at_the_prime_of_n(monkeypatch)
    assert betti_via_nbc(8, 3, cap=None)[3] == want


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
def test_a7_charpoly_by_nbc_matches_ff():
    # The whole chi(A_7), so b_5, b_6 and b_7 each have a second route
    # made of package code only (the search takes 22-26 s at 2 workers).
    assert charpoly_via_nbc(7, workers=2, cap=None) == finite_field_charpoly(7)


@pytest.mark.long_run
def test_count_only_levels_reach_the_ff_values():
    # The values on which ff and the NBC search agree.  Each search ends on
    # a count-only level: b_4(A_8) at p = 7 on int8 rows, b_5(A_7) at
    # p = 17 on int16 rows.
    assert betti_via_nbc(8, 4, workers=2, cap=None)[4] == 81029004
    assert betti_via_nbc(7, 5, workers=2, cap=None)[5] == 37769977


@pytest.mark.long_run
def test_a8_depth_4_at_the_depth_prime_matches_p_79(monkeypatch):
    # b_4(A_8) at its depth prime, 7, and at n = 8's own prime, 79, whose
    # base-p keys come closest to 2^63 (about 3 s each at 2 workers).
    assert betti_via_nbc(8, 4, workers=2, cap=None)[4] == 81029004
    _at_the_prime_of_n(monkeypatch)
    assert betti_via_nbc(8, 4, workers=2, cap=None)[4] == 81029004


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
