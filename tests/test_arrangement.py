import pytest

from resonance import arrangement
from resonance.arrangement import (
    CharPoly,
    build_arrangement,
    count_points_avoiding,
    default_primes,
    enumerate_chambers_bruteforce,
    finite_field_charpoly,
    region_count,
    whitney_charpoly,
)
from resonance.errors import GuardExceeded, InternalCheckError
from resonance.nbc import charpoly_via_nbc
from resonance.table1 import GOLDEN_BETTI, GOLDEN_REGIONS

from oracles import count_points_oracle, whitney_charpoly_oracle

CHI_A3 = (-9, 15, -7, 1)


def test_build_arrangement_small():
    assert build_arrangement(1).hyperplanes == (1,)
    assert build_arrangement(2).hyperplanes == (1, 2, 3)
    arr = build_arrangement(3)
    assert len(arr) == 7
    assert arr.hyperplanes[-1] == 7


def test_build_arrangement_range():
    with pytest.raises(ValueError):
        build_arrangement(0)
    with pytest.raises(ValueError):
        build_arrangement(64)


def test_charpoly_validation():
    with pytest.raises(ValueError):
        CharPoly((9, 15, -7, 1))  # wrong sign pattern
    with pytest.raises(ValueError):
        CharPoly((-9, 15, -7, 2))  # not monic
    poly = CharPoly(CHI_A3)
    assert poly.betti == (1, 7, 15, 9)
    assert CharPoly.from_betti((1, 7, 15, 9)) == poly


def test_whitney_small():
    assert whitney_charpoly(1).coeffs == (-1, 1)
    assert whitney_charpoly(3).coeffs == CHI_A3
    assert whitney_charpoly(4).betti == (1, 15, 80, 170, 104)


def test_deletion_restriction_matches_whitney_sum_oracle():
    for n in range(1, 5):
        assert whitney_charpoly(n).coeffs == whitney_charpoly_oracle(n)


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


def test_finite_field_a7_matches_golden_values():
    poly = finite_field_charpoly(7)
    assert poly.betti[:5] == (1,) + tuple(GOLDEN_BETTI[i][7] for i in range(1, 5))
    assert region_count(poly) == GOLDEN_REGIONS[7]
    assert poly(1) == 0


def test_finite_field_extra_primes_are_checked(monkeypatch):
    primes = [5, 7, 11, 13, 17, 19]
    assert finite_field_charpoly(3, primes=primes).coeffs == CHI_A3
    exact = arrangement.count_points_avoiding

    def off_at_19(n, q, workers=1):
        return exact(n, q, workers) + (q == 19)

    monkeypatch.setattr(arrangement, "count_points_avoiding", off_at_19)
    with pytest.raises(InternalCheckError, match="q=19"):
        finite_field_charpoly(3, primes=primes)


def test_finite_field_point_guard():
    huge = 1000000000000000003
    with pytest.raises(GuardExceeded, match="point-count work"):
        finite_field_charpoly(2, primes=[3, 5, huge])
    with pytest.raises(GuardExceeded, match="q=59"):
        finite_field_charpoly(8, cap=8)  # C(64, 7) sorted points at q=59
    # At n=2 the q - 1 per-x_2 masks of q bytes are the work: 14107 is the
    # largest prime the guard allows, and its 14106 jobs take well under 1 s.
    assert finite_field_charpoly(2, primes=[3, 5, 14107]).coeffs == (2, -3, 1)
    with pytest.raises(GuardExceeded, match="q=14143"):
        finite_field_charpoly(2, primes=[3, 5, 14143])
    assert finite_field_charpoly(2, primes=[3, 5, 14143], cap=None).coeffs == (2, -3, 1)


def test_jobs_run_without_sched_getaffinity(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity; os.cpu_count() stands in.
    monkeypatch.delattr(arrangement.os, "sched_getaffinity")
    assert count_points_avoiding(4, 7, workers=2) == count_points_avoiding(4, 7) == 90
    assert finite_field_charpoly(3, workers=2) == finite_field_charpoly(3)
    assert charpoly_via_nbc(3, workers=2) == charpoly_via_nbc(3) == CharPoly(CHI_A3)


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
