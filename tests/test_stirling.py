import random
from collections import Counter

import pytest

from resonance import stirling
from resonance.errors import InternalCheckError
from resonance.stirling import (
    CLOSED_FORMS,
    StirlingCombination,
    betti2_closed,
    betti3_closed,
    closed_form,
    fit_stirling_coefficients,
    stirling2,
)
from resonance.table1 import GOLDEN_BETTI, GOLDEN_REGIONS

from oracles import (
    betti_bound_holds,
    betti_upper_bound,
    region_log2_bound,
    stirling2_altsum,
    stirling_oracle,
)

B2_ROW = GOLDEN_BETTI[2]
B3_ROW = GOLDEN_BETTI[3]


def test_stirling_diagonal_and_edges():
    for n in range(0, 12):
        assert stirling2(n, n) == 1
        if n >= 1:
            assert stirling2(n, 1) == 1
        assert stirling2(n, n + 3) == 0


def test_stirling_small_values_by_enumeration():
    assert stirling2(4, 2) == stirling_oracle(4, 2) == 7
    assert stirling2(4, 3) == stirling_oracle(4, 3) == 6
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert stirling2(n, k) == stirling_oracle(n, k)


def test_recurrence_agrees_with_alternating_sum():
    for n in range(0, 31):
        for k in range(0, 31):
            assert stirling2(n, k) == stirling2_altsum(n, k)


def test_large_n_needs_no_deep_recursion():
    for k in range(0, 9):
        assert stirling2(501, k) == stirling2_altsum(501, k)
    assert betti3_closed(600) > 0


def test_recurrence_identity_holds():
    for n in range(1, 20):
        for k in range(1, n + 1):
            assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_betti2_closed_row():
    assert betti2_closed(1) == 0
    assert betti2_closed(3) == 15
    assert betti2_closed(9) == 120975
    for n, v in B2_ROW.items():
        assert betti2_closed(n) == v


def test_betti3_closed_row():
    assert betti3_closed(3) == 9
    assert betti3_closed(4) == 170
    assert betti3_closed(9) == 17153460
    for n, v in B3_ROW.items():
        assert betti3_closed(n) == v


def test_betti_closed_reads_i_as_an_integer_index():
    # A bool is an int, so True names row betti1; a float names no row.
    assert stirling.betti_closed(True, 3) == stirling.betti_closed(1, 3) == 7
    for i in (3.0, "3", None):
        with pytest.raises(TypeError):
            stirling.betti_closed(i, 4)


def test_every_closed_form_row_evaluates_both_ways():
    assert len(CLOSED_FORMS) == 6
    for name in CLOSED_FORMS:
        for n in range(1, 61):
            closed_form(name, n)
        with pytest.raises(ValueError, match="n must be positive"):
            closed_form(name, 0)


def test_circuit_rows_combine_to_betti3():
    # betti3 - triples + tetrahedra + rectangles vanishes as coefficient data,
    # the power sums taken over their common divisor 24.
    names = ("betti3", "intersecting_triples", "tetrahedron_circuits", "rectangle_circuits")
    for side, scale in ((0, lambda divisor: 1), (1, lambda divisor: 24 // divisor)):
        total = Counter()
        for sign, name in zip((1, -1, 1, 1), names):
            row = CLOSED_FORMS[name]
            for key, c in row[side].items():
                total[key] += sign * scale(row[2]) * c
        assert set(total.values()) == {0}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_corrupted_stirling_numbers_fail_their_row(monkeypatch, name):
    k = min(CLOSED_FORMS[name][0])
    exact = stirling.stirling2
    monkeypatch.setattr(stirling, "stirling2", lambda m, j: exact(m, j) + (j == k))
    with pytest.raises(InternalCheckError, match=f"^{name} expressions disagree at n=3"):
        closed_form(name, 3)


def test_fit_recovers_known_combinations():
    assert fit_stirling_coefficients(1, [1, 3]).coefficients == {2: 1}
    assert fit_stirling_coefficients(2, [0, 2, 15, 80]).coefficients == {3: 2, 4: 3}
    b3_inputs = [B3_ROW[n] for n in range(1, 9)]
    assert fit_stirling_coefficients(3, b3_inputs).coefficients == {
        4: 9, 5: 80, 6: 345, 7: 840, 8: 840,
    }


def test_fit_round_trips_random_combinations():
    from math import comb, factorial

    rng = random.Random(11)
    for i in (1, 2, 3, 4):
        for _ in range(10):
            coeffs = {}
            for k in range(i + 1, 2**i + 1):
                cap = comb(2**i - 1, k - 1) * factorial(k - 1) // factorial(i)
                c = rng.randint(0, min(5, cap))
                if c:
                    coeffs[k] = c
            combo = StirlingCombination(i, coeffs)
            values = [combo.evaluate(n) for n in range(1, 2**i + 1)]
            assert fit_stirling_coefficients(i, values).coefficients == coeffs


def test_fit_rejects_wrong_input_count():
    with pytest.raises(ValueError):
        fit_stirling_coefficients(2, [0, 2, 15])


def test_fit_rejects_inconsistent_inputs():
    with pytest.raises(ValueError):
        fit_stirling_coefficients(2, [1, 2, 15, 80])  # b2(A_1) = 1 is impossible
    with pytest.raises(ValueError, match="no integer Stirling combination"):
        fit_stirling_coefficients(1, [1, 2])  # solved by c_1 = c_2 = 1/2


@pytest.mark.parametrize("coefficients, message", [
    ({2: 1}, "coefficient index k=2 outside 3..4"),  # S(n+1, 2), which b_2 cannot contain
    ({3: -1}, "negative coefficient"),
    ({4: 4}, "exceeds its combinatorial bound"),
])
def test_fit_refuses_a_combination_of_the_wrong_shape(coefficients, message):
    # The fit solves exactly, so the shape checks are StirlingCombination's.
    values = [sum(c * stirling2(n + 1, k) for k, c in coefficients.items()) for n in range(1, 5)]
    with pytest.raises(ValueError, match=message):
        fit_stirling_coefficients(2, values)


def test_combination_rejects_bound_violation():
    # c_{2,4} is capped at 3 = C(3,3) * 3! / 2!
    with pytest.raises(ValueError):
        StirlingCombination(2, {4: 4})


def test_upper_bound_values():
    assert betti_upper_bound(2, 3) == 32
    assert betti_upper_bound(1, 4) == 16
    assert betti_upper_bound(3, 4) == 682


def test_bounds_hold_on_golden_cells():
    for i, row in GOLDEN_BETTI.items():
        for n, value in row.items():
            if value is None:
                continue
            assert betti_bound_holds(i, n, value)
            assert value < betti_upper_bound(i, n) or value == 0


def test_region_log2_bound_values():
    assert region_log2_bound(2)[0] == 3
    assert region_log2_bound(3)[0] == 7
    assert region_log2_bound(6)[0] == 31


def test_region_log2_bound_covers_known_chamber_counts():
    for n, regions in GOLDEN_REGIONS.items():
        if regions is None or n < 2:
            continue
        exponent, _ = region_log2_bound(n)
        assert regions < 2**exponent


def test_summed_bound_anomaly_at_two():
    # The term-by-term bounds sum to 13 > 8 at n = 2; the chamber-count
    # inequality itself still holds (6 < 8).  From n = 3 on, the summed
    # form holds too.
    exponent, holds = region_log2_bound(2)
    assert exponent == 3 and not holds
    for n in range(3, 10):
        assert region_log2_bound(n)[1]
