from itertools import combinations

import pytest

from resonance import circuits
from resonance.circuits import b3_via_circuits
from resonance.errors import InternalCheckError
from resonance.stirling import betti3_closed, closed_form, stirling2

from kernel_helpers import CircuitTag, classify_relevant_4circuit, is_nbc, sides_from_rectangle
from oracles import (
    SideMidpointTuple,
    intersecting_triples_bruteforce,
    is_dependent,
    mask_from_elements as M,
    partitions_into_blocks,
    rectangle_circuit_families,
    rectangle_from_sides,
    side_midpoint_tuples,
    tetrahedron_circuits,
)


def relevant_circuits_by_linear_algebra(n):
    """Oracle: four-subsets that are circuits with pairwise-intersecting
    non-maximal triple, straight from rank computations."""
    out = set()
    for fam in combinations(range(1, 1 << n), 4):
        if not is_dependent(fam, n):
            continue
        if any(is_dependent(sub, n) for sub in combinations(fam, 3)):
            continue
        rest = sorted(fam)[:3]
        if all(a & b for a, b in combinations(rest, 2)):
            out.add(frozenset(fam))
    return out


def test_triples_formula_vs_bruteforce():
    # The n = 2 cell was flagged as a potential formula/oracle clash;
    # both sides give 0 (no three distinct subsets of a 2-set intersect
    # pairwise), so there is no discrepancy to reconcile.
    for n in range(1, 6):
        assert closed_form("intersecting_triples", n) == intersecting_triples_bruteforce(n)
    assert closed_form("intersecting_triples", 2) == 0


def test_partition_enumeration_counts_are_stirling():
    for size in range(1, 8):
        for k in range(1, size + 1):
            assert sum(1 for _ in partitions_into_blocks(size, k)) == stirling2(size, k)


def test_triples_known_values():
    assert closed_form("intersecting_triples", 1) == 0
    assert closed_form("intersecting_triples", 3) == 13
    assert closed_form("intersecting_triples", 4) == 222


def test_classify_reference_families():
    f1 = [M([1, 2]), M([1, 3]), M([2, 3]), M([1, 2, 3])]
    assert classify_relevant_4circuit(f1, 4).tag is CircuitTag.TYPE_I

    f2 = [M([1, 2]), M([1, 3]), M([1]), M([2, 3])]
    assert classify_relevant_4circuit(f2, 4).tag is CircuitTag.TYPE_II

    f3 = [M([1, 2]), M([1, 3]), M([1]), M([1, 2, 3])]
    assert classify_relevant_4circuit(f3, 4).tag is CircuitTag.TYPE_III

    f4 = [M([2, 4]), M([1, 3, 4]), M([1, 4]), M([2, 3, 4])]
    res = classify_relevant_4circuit(f4, 4)
    assert res.tag is CircuitTag.TYPE_IV
    assert res.x == M([1])


def test_classifier_matches_linear_algebra_census():
    for n in (3, 4):
        oracle = relevant_circuits_by_linear_algebra(n)
        for fam in combinations(range(1, 1 << n), 4):
            got = classify_relevant_4circuit(fam, n).tag
            assert (got is not CircuitTag.NOT_RELEVANT) == (frozenset(fam) in oracle)


def test_tetrahedron_counts():
    assert closed_form("tetrahedron_circuits", 2) == 0
    assert closed_form("tetrahedron_circuits", 3) == 1
    assert closed_form("tetrahedron_circuits", 5) == 65
    assert set(tetrahedron_circuits(3)) == {
        frozenset({M([1, 2]), M([1, 3]), M([2, 3]), M([1, 2, 3])})
    }


def test_tetrahedra_classify_as_type_one():
    for n in (3, 4):
        for fam in tetrahedron_circuits(n):
            assert classify_relevant_4circuit(fam, n).tag is CircuitTag.TYPE_I


def test_rectangle_from_sides_worked_example():
    t = SideMidpointTuple((M([2]), M([3]), 0, 0), M([1]))
    assert rectangle_from_sides(t) == (M([1, 2]), M([1, 2, 3]), M([1, 3]), M([1]))


def test_side_tuple_validation():
    with pytest.raises(ValueError):
        SideMidpointTuple((0, 0, 0, 0), M([1]))  # both opposite pairs empty
    with pytest.raises(ValueError):
        SideMidpointTuple((M([2]), M([3]), 0, 0), 0)  # empty midpoint
    with pytest.raises(ValueError):
        SideMidpointTuple((M([2]), M([2]), M([3]), 0), M([1]))  # overlap


def test_rectangle_relation_holds_identically():
    for t in side_midpoint_tuples(3):
        a1, a2, a3, a4 = rectangle_from_sides(t)
        for e in range(3):
            bit = 1 << e
            assert bool(a1 & bit) + bool(a3 & bit) == bool(a2 & bit) + bool(a4 & bit)


def test_sides_round_trip_exhaustive():
    for n in (3, 4):
        for t in side_midpoint_tuples(n):
            quad = rectangle_from_sides(t)
            assert sides_from_rectangle(quad, n) == t


def test_sides_from_rectangle_recovers_midpoint():
    quad = (M([2, 4]), M([1, 4]), M([1, 3, 4]), M([2, 3, 4]))
    assert sides_from_rectangle(quad, 4).midpoint == M([4])


def test_sides_from_rectangle_rejects_degenerate():
    with pytest.raises(ValueError):
        sides_from_rectangle((M([1]), M([2]), M([1]), M([3])), 3)
    with pytest.raises(ValueError):
        # no rectangle relation
        sides_from_rectangle((M([1]), M([1, 2]), M([1, 3]), M([1, 2, 3])), 3)


def test_rectangle_counts():
    assert closed_form("rectangle_circuits", 2) == 0
    assert closed_form("rectangle_circuits", 3) == 3
    assert closed_form("rectangle_circuits", 4) == 3 * 10 + 12 * 1
    expected = 3 * stirling2(6, 4) + 12 * stirling2(6, 5) + 15 * stirling2(6, 6)
    assert closed_form("rectangle_circuits", 5) == expected


def test_rectangles_classify_as_type_three_or_four():
    for n in (3, 4):
        for fam in rectangle_circuit_families(n):
            tag = classify_relevant_4circuit(fam, n).tag
            assert tag in (CircuitTag.TYPE_III, CircuitTag.TYPE_IV)


def test_rectangle_families_equal_classifier_census():
    for n in (3, 4):
        by_classifier = {
            frozenset(fam)
            for fam in combinations(range(1, 1 << n), 4)
            if classify_relevant_4circuit(fam, n).tag
            in (CircuitTag.TYPE_III, CircuitTag.TYPE_IV)
        }
        assert rectangle_circuit_families(n) == by_classifier


def test_broken_triples_split_into_tetra_and_rect():
    # Pairwise-intersecting triples that fail the NBC test are exactly
    # the tetrahedron and rectangle circuits with their maxima removed,
    # and those two sources never overlap.
    for n in (3, 4):
        broken = set()
        for tri in combinations(range(1, 1 << n), 3):
            if all(a & b for a, b in combinations(tri, 2)) and not is_nbc(tri, n):
                broken.add(frozenset(tri))
        from_tetra = {frozenset(sorted(fam)[:3]) for fam in tetrahedron_circuits(n)}
        from_rect = {frozenset(sorted(fam)[:3]) for fam in rectangle_circuit_families(n)}
        assert from_tetra & from_rect == set()
        assert from_tetra | from_rect == broken


def test_b3_assembly():
    assert b3_via_circuits(3) == 13 - 1 - 3 == 9
    assert b3_via_circuits(4) == 170
    assert b3_via_circuits(6) == 22435
    for n in range(1, 10):
        assert b3_via_circuits(n) == betti3_closed(n)


def test_b3_assembly_is_checked_against_the_closed_form(monkeypatch):
    exact = circuits.closed_form
    monkeypatch.setattr(
        circuits, "closed_form", lambda name, n: exact(name, n) + (name == "rectangle_circuits")
    )
    with pytest.raises(InternalCheckError, match="closed form"):
        b3_via_circuits(5)
