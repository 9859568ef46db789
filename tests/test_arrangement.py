import random
from math import gcd

import pytest

from resonance import arrangement
from resonance.arrangement import (
    CharPoly,
    count_points_avoiding,
    default_primes,
    enumerate_chambers_bruteforce,
    finite_field_charpoly,
    region_count,
    whitney_charpoly,
)
from resonance.errors import GuardExceeded, InternalCheckError
from resonance.linalg import restrict
from resonance.nbc import charpoly_via_nbc
from resonance.table1 import GOLDEN_BETTI, GOLDEN_REGIONS

from oracles import count_points_oracle, whitney_charpoly_oracle, whitney_charpoly_vectors_oracle

CHI_A3 = (-9, 15, -7, 1)


def test_build_arrangement_range():
    with pytest.raises(ValueError, match="n must be in 1..8"):
        whitney_charpoly(0, cap=None)
    with pytest.raises(ValueError, match="n must be in 1..8"):
        enumerate_chambers_bruteforce(64, cap=None)


def test_charpoly_validation():
    with pytest.raises(InternalCheckError):
        CharPoly((9, 15, -7, 1))  # wrong sign pattern
    with pytest.raises(InternalCheckError):
        CharPoly((-9, 15, -7, 2))  # not monic
    poly = CharPoly(CHI_A3)
    assert poly.betti == (1, 7, 15, 9)
    assert CharPoly.from_betti((1, 7, 15, 9)) == poly


def test_charpoly_requires_chi_of_one_to_vanish():
    # Monic, signs alternating and b_1 = 7, but b_3 is one too many:
    # chi(1) = -1.
    with pytest.raises(InternalCheckError, match="chi\\(1\\) must be 0"):
        CharPoly.from_betti((1, 7, 15, 10))


def test_whitney_small():
    assert whitney_charpoly(1).coeffs == (-1, 1)
    assert whitney_charpoly(3).coeffs == CHI_A3
    assert whitney_charpoly(4).betti == (1, 15, 80, 170, 104)


def test_deletion_restriction_matches_whitney_sum_oracle():
    for n in range(1, 5):
        assert whitney_charpoly(n).coeffs == whitney_charpoly_oracle(n)


def random_arrangement(rng):
    """Distinct normalized integer normals, entries in -3..3, sorted as
    tuples, in dimension 1..4.  A zero or a repeated coordinate puts
    about a third of them in a proper subspace, where the rank is below
    dim."""
    dim = rng.choice((1, 2, 3, 3, 4, 4, 4))
    shape = rng.choice(("full",) * 4 + ("zero", "repeat")) if dim > 1 else "full"
    normals = set()
    for _ in range(rng.randint(0, 10)):
        v = [rng.randint(-3, 3) for _ in range(dim)]
        if shape == "zero":
            v[-1] = 0
        elif shape == "repeat":
            v[1] = v[0]
        g = gcd(*v)
        if not g:
            continue
        if next(x for x in v if x) < 0:
            g = -g
        normals.add(tuple(x // g for x in v))
    return tuple(sorted(normals)), dim


def test_deletion_restriction_matches_whitney_sum_on_random_arrangements():
    rng = random.Random(16)
    short_rank = 0
    for _ in range(200):
        normals, dim = random_arrangement(rng)
        coeffs = whitney_charpoly_vectors_oracle(normals, dim)
        betti = arrangement._count_regions(codes(normals))
        # b_0 .. b_rank, each positive; chi has (-1)^i b_i at t^(dim - i).
        assert all(betti)
        assert betti + (0,) * (dim + 1 - len(betti)) == tuple(
            (-1) ** i * coeffs[dim - i] for i in range(dim + 1)
        )
        short_rank += len(betti) <= dim
    assert short_rank >= 40


def codes(normals):
    """The memo key of the normalized integer ``normals``."""
    return tuple(sorted(map(arrangement._code, normals)))


def drop_region_tables():
    """Empty the deletion/restriction memo and its restriction and code
    tables."""
    arrangement._count_regions.cache_clear()
    arrangement._RESTRICTED.clear()
    arrangement._CODE.clear()
    arrangement._NORMAL.clear()


def memo_sizes():
    """Memo entries and restriction-table pairs."""
    pairs = sum(map(len, arrangement._RESTRICTED.values()))
    return arrangement._count_regions.cache_info().currsize, pairs


def test_deletion_restriction_memo_size_at_a6():
    drop_region_tables()
    try:
        assert enumerate_chambers_bruteforce(6) == GOLDEN_REGIONS[6]
        # Deleting the first normal instead of the last left 33223 entries;
        # codes that sorted otherwise than the normals would leave more.
        assert memo_sizes() == (12350, 18061)
    finally:
        drop_region_tables()


def test_codes_order_as_normals():
    drop_region_tables()
    try:
        for n in range(1, 7):
            assert enumerate_chambers_bruteforce(n) == GOLDEN_REGIONS[n]
        assert memo_sizes() == (12350, 18061)
        # One code per normal met, and back: no two normals share a code.
        assert len(arrangement._NORMAL) == len(arrangement._CODE) == 558
        by_dim = {}
        for c, v in arrangement._NORMAL.items():
            assert arrangement._CODE[v] == c
            by_dim.setdefault(len(v), []).append((c, v))
        assert sorted(by_dim) == [1, 2, 3, 4, 5, 6]
        for met in by_dim.values():
            assert [v for _, v in sorted(met)] == sorted(v for _, v in met)
    finally:
        drop_region_tables()


def test_code_refuses_entries_outside_a_byte():
    try:
        assert arrangement._code((127, -128, 0)) == 0x1FF0080
        for v in ((128, 0), (0, -129), (1, 300)):
            with pytest.raises(InternalCheckError, match="outside -128..127") as err:
                arrangement._code(v)
            assert "\n" not in str(err.value)
            assert err.value.__cause__ is None and err.value.__suppress_context__
            assert v not in arrangement._CODE
    finally:
        drop_region_tables()


def test_restriction_table_stands_in_for_restrict():
    rng = random.Random(17)
    cases = [random_arrangement(rng)[0] for _ in range(200)]

    def betti(order, cold):
        drop_region_tables()
        out = {}
        for normals in order:
            # The memo goes each time, so every key is recounted through the
            # table, which keeps what the earlier arrangements put in it
            # unless ``cold``.
            if cold:
                drop_region_tables()
            arrangement._count_regions.cache_clear()
            out[normals] = arrangement._count_regions(codes(normals))
        return out

    try:
        cold = betti(cases, cold=True)
        assert betti(cases, cold=False) == cold
        assert betti(cases[::-1], cold=False) == cold
        pairs = 0
        for h, table in arrangement._RESTRICTED.items():
            h = arrangement._NORMAL[h]
            p = next(j for j, x in enumerate(h) if x)
            for w, induced in table.items():
                [v] = restrict([arrangement._NORMAL[w]], h)
                assert arrangement._NORMAL[induced] == v[:p] + v[p + 1 :]
                assert arrangement._CODE[v[:p] + v[p + 1 :]] is induced
                pairs += 1
        assert pairs > 1000
    finally:
        drop_region_tables()


def test_restriction_table_refuses_parallel_normals():
    # A key holds distinct normalized normals.  A repeated one has nothing
    # to restrict to; counted as if it were absent from A^h, this key gave
    # (1, 3, 2) where its arrangement has (1, 2, 1).
    try:
        with pytest.raises(InternalCheckError, match=r"normal \(1, 0\) is parallel to the deleted"):
            arrangement._count_regions(codes(((0, 1), (1, 0), (1, 0))))
    finally:
        drop_region_tables()


@pytest.mark.long_run
def test_deletion_restriction_a7_matches_ff():
    # About 9-12 s with the point count, and 320 MB of memo and restriction
    # table, which are dropped afterwards.
    drop_region_tables()
    try:
        assert whitney_charpoly(7, cap=None) == finite_field_charpoly(7)
        assert memo_sizes() == (747587, 276008)
    finally:
        drop_region_tables()


def test_deletion_restriction_matches_golden_a5_a6():
    for n in (5, 6):
        assert whitney_charpoly(n) == golden_chi(n)
        assert enumerate_chambers_bruteforce(n) == GOLDEN_REGIONS[n]


def test_whitney_guard():
    with pytest.raises(GuardExceeded):
        whitney_charpoly(7)
    assert whitney_charpoly(2, cap=None).coeffs == (2, -3, 1)


def test_point_count_matches_naive_loop():
    # (4, 5), (4, 7) and (5, 7) have points with repeated coordinates,
    # which the sorted count weights by their multiplicities.
    for n, q in ((1, 2), (2, 3), (2, 5), (3, 3), (3, 5), (3, 7), (4, 5), (4, 7), (5, 7)):
        assert count_points_avoiding(n, q) == count_points_oracle(n, q)


def test_point_count_across_word_boundaries():
    # A prefix's subset-sum mask takes ceil(q/64) words: one at q = 61,
    # two at 67 and 127, three at 131 and four at 193.
    for q in (61, 67, 127, 131, 193):
        assert count_points_avoiding(3, q) == (q - 1) * (q - 3) ** 2  # chi(A_3)(q)
    chi4 = charpoly_via_nbc(4)
    for q in (67, 131):
        assert count_points_avoiding(4, q) == chi4(q)


def test_serial_finite_field_counts_each_prime_once(monkeypatch):
    # The benchmark wraps count_points_avoiding and expects one call per
    # prime when no pool is asked for.
    calls = []
    exact = arrangement.count_points_avoiding

    def counted(n, q):
        calls.append(q)
        return exact(n, q)

    monkeypatch.setattr(arrangement, "count_points_avoiding", counted)
    assert finite_field_charpoly(4) == charpoly_via_nbc(4)
    assert calls == default_primes(4)


def golden_chi(n):
    """chi(A_5) or chi(A_6) from golden b_0..b_4, the region count and
    chi(1) = 0."""
    head = [1] + [GOLDEN_BETTI[i][n] for i in range(1, 5)]
    rest = GOLDEN_REGIONS[n] - sum(head)  # b_5, plus b_6 at n = 6
    alternating = sum((-1) ** i * b for i, b in enumerate(head))  # b_5 - b_6
    if n == 5:
        assert rest == alternating
        return CharPoly.from_betti(head + [rest])
    b6 = (rest - alternating) // 2
    return CharPoly.from_betti(head + [rest - b6, b6])


def test_point_counts_at_default_primes_match_golden_a6():
    chi = golden_chi(6)
    assert chi(1) == 0
    for q in default_primes(6):
        assert count_points_avoiding(6, q) == chi(q)


def test_point_count_refuses_oversized_prime():
    with pytest.raises(ValueError, match="too large"):
        count_points_avoiding(2, 2**31 + 11)  # refused before any primality test


def test_point_count_rejects_bad_primes():
    with pytest.raises(ValueError):
        count_points_avoiding(3, 2)  # 2 <= max 0/1 determinant for n=3
    with pytest.raises(ValueError):
        count_points_avoiding(3, 9)  # not prime


def test_finite_field_n2_closed_form():
    # off three lines in the plane the count is (q-1)(q-2)
    for q in (3, 5, 7):
        assert count_points_avoiding(2, q) == (q - 1) * (q - 2)
    assert finite_field_charpoly(2, primes=[3, 5, 7]).coeffs == (2, -3, 1)


def test_finite_field_a3():
    assert finite_field_charpoly(3, primes=[5, 7, 11, 13]).coeffs == CHI_A3


def test_finite_field_a5_betti_vector():
    # b_5 pinned by chi(1) = 0: 1 - 31 + 375 - 2130 + 5270 - b5 = 0
    poly = finite_field_charpoly(5)
    assert poly.betti == (1, 31, 375, 2130, 5270, 3485)
    assert poly(1) == 0
    assert region_count(poly) == 11292


def test_finite_field_prime_choice_irrelevant():
    a = finite_field_charpoly(3, primes=[5, 7, 11, 13])
    b = finite_field_charpoly(3, primes=[17, 19, 23, 29])
    assert a == b


def test_finite_field_needs_enough_primes():
    with pytest.raises(ValueError):
        finite_field_charpoly(3, primes=[5, 7, 11])


def test_finite_field_threads_match_serial():
    serial = finite_field_charpoly(4)
    threaded = finite_field_charpoly(4, workers=3)
    assert serial == threaded
    assert finite_field_charpoly(6, workers=2) == finite_field_charpoly(6)
    # One pool for all primes, extra ones included, each summed apart.
    primes = [7, 11, 13, 17, 19, 23, 29]
    assert finite_field_charpoly(4, primes, workers=2) == serial
    counts = [count_points_avoiding(5, q) for q in primes]
    assert arrangement._point_counts(5, primes, 2) == counts
    # One piece per prime at one worker; 16 and 24 strided pieces of x_2
    # per prime at 2 and 3 workers, but at most q - 1 = 10 at q = 11.
    primes = [11, 67, 71]
    counts = [count_points_avoiding(5, q) for q in primes]
    for workers in (1, 2, 3):
        assert arrangement._point_counts(5, primes, workers) == counts


def test_finite_field_a7_matches_golden_values():
    poly = finite_field_charpoly(7)
    assert poly.betti[:5] == (1,) + tuple(GOLDEN_BETTI[i][7] for i in range(1, 5))
    assert region_count(poly) == GOLDEN_REGIONS[7]
    assert poly(1) == 0


@pytest.mark.long_run
def test_finite_field_a8_reaches_b4():
    # chi(A_8) from nine primes 59 .. 97 with the guards lifted: b_4(A_8)
    # is the NBC search's value, which GOLDEN_BETTI leaves open.
    poly = finite_field_charpoly(8, workers=2, cap=None)
    assert poly.betti[:4] == (1,) + tuple(GOLDEN_BETTI[i][8] for i in range(1, 4))
    assert poly.betti[4] == 81029004
    assert region_count(poly) == GOLDEN_REGIONS[8]
    assert poly(1) == 0


def test_finite_field_extra_primes_are_checked(monkeypatch):
    primes = [5, 7, 11, 13, 17, 19]
    assert finite_field_charpoly(3, primes=primes).coeffs == CHI_A3
    exact = arrangement.count_points_avoiding

    def off_at_19(n, q):
        return exact(n, q) + (q == 19)

    monkeypatch.setattr(arrangement, "count_points_avoiding", off_at_19)
    with pytest.raises(InternalCheckError, match="q=19"):
        finite_field_charpoly(3, primes=primes)


def test_finite_field_refuses_a_non_integral_interpolant(monkeypatch):
    # One count off by one among the n + 1 interpolated: the Vandermonde
    # solve has no integer solution.
    exact = arrangement.count_points_avoiding
    monkeypatch.setattr(arrangement, "count_points_avoiding", lambda n, q: exact(n, q) + (q == 5))
    with pytest.raises(InternalCheckError, match="not integral"):
        finite_field_charpoly(3, primes=[5, 7, 11, 13])


def test_finite_field_point_guard():
    huge = 1000000000000000003
    with pytest.raises(ValueError, match="too large for the point count"):
        finite_field_charpoly(2, primes=[3, 5, huge])
    with pytest.raises(GuardExceeded, match="q=59"):
        finite_field_charpoly(8)  # C(64, 7) sorted points at q=59
    # At n=2 the count forms no masks: it counts the x_2 of each piece, and
    # its work is the q - 1 sorted points.  199999991 is the largest prime
    # the guard allows, and either count takes well under 1 s.
    assert finite_field_charpoly(2, primes=[3, 5, 14107]).coeffs == (2, -3, 1)
    assert finite_field_charpoly(2, primes=[3, 5, 14143]).coeffs == (2, -3, 1)
    assert finite_field_charpoly(2, primes=[3, 5, 199999991]).coeffs == (2, -3, 1)
    with pytest.raises(GuardExceeded, match="q=200000033"):
        finite_field_charpoly(2, primes=[3, 5, 200000033])
    assert finite_field_charpoly(2, primes=[3, 5, 200000033], cap=None).coeffs == (2, -3, 1)


def test_jobs_run_without_sched_getaffinity(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity; os.cpu_count() stands in.
    monkeypatch.delattr(arrangement.os, "sched_getaffinity")
    assert arrangement._point_counts(4, [7], 2) == [count_points_avoiding(4, 7)] == [90]
    assert finite_field_charpoly(3, workers=2) == finite_field_charpoly(3)
    assert charpoly_via_nbc(3, workers=2) == charpoly_via_nbc(3) == CharPoly(CHI_A3)


def test_finite_field_refuses_n_without_a_determinant_bound():
    # Without primes default_primes refuses n=9; with them, the prime check.
    with pytest.raises(ValueError, match="no determinant bound tabulated for n=9"):
        finite_field_charpoly(9, cap=None)
    primes = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149]
    with pytest.raises(ValueError, match="no determinant bound tabulated for n=9"):
        finite_field_charpoly(9, primes=primes, cap=None)


def test_default_primes_exceed_determinant_bound():
    assert default_primes(2) == [2, 3, 5]
    assert default_primes(6)[:3] == [11, 13, 17]


def test_three_way_agreement_small_n():
    for n in range(1, 5):
        w = whitney_charpoly(n)
        f = finite_field_charpoly(n)
        c = charpoly_via_nbc(n)
        assert w == f == c


def test_region_count_values():
    assert region_count(CharPoly(CHI_A3)) == 32
    assert region_count(CharPoly((-1, 1))) == 2
    assert region_count(whitney_charpoly(4)) == 370


def test_chamber_bruteforce_small():
    assert enumerate_chambers_bruteforce(1) == 2
    assert enumerate_chambers_bruteforce(2) == 6
    assert enumerate_chambers_bruteforce(3) == 32
    assert enumerate_chambers_bruteforce(4) == 370


def test_chamber_guard():
    with pytest.raises(GuardExceeded):
        enumerate_chambers_bruteforce(7)


def test_chambers_agree_with_charpoly():
    for n in range(1, 5):
        assert enumerate_chambers_bruteforce(n) == region_count(charpoly_via_nbc(n))


def test_alternating_signs_and_b1():
    for n in range(1, 5):
        poly = charpoly_via_nbc(n)
        assert poly.coeffs[n] == 1
        assert poly.betti[1] == (1 << n) - 1
        for i, b in enumerate(poly.betti):
            assert b >= 0
            assert poly.coeffs[n - i] == (-1) ** i * b
