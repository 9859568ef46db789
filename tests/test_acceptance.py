"""Acceptance suite: one test per release criterion, exact arithmetic only.

Each test prints a single PASS line with its timing so a full run reads
as a checklist.
"""

import json
import os
import random
import time
from itertools import combinations

from resonance.arrangement import (
    enumerate_chambers_bruteforce,
    finite_field_charpoly,
    region_count,
    whitney_charpoly,
)
from resonance.circuits import (
    b3_via_circuits,
    count_rectangle_circuits,
    count_tetrahedron_circuits,
    rectangle_circuit_families,
    rectangle_from_sides,
    side_midpoint_tuples,
    tetrahedron_circuits,
)
from resonance.cli import main
from resonance.nbc import betti_via_nbc, charpoly_via_nbc, is_nbc
from resonance.prototypes import (
    Partition,
    Prototype,
    PrototypeClass,
    classify,
    coefficients,
    realize,
)
from resonance.stirling import betti2_closed, betti3_closed, fit_stirling_coefficients
from resonance.table1 import GOLDEN_BETTI, GOLDEN_REGIONS
from resonance.universality import embed, minor_matroid_check, verify_embedding

from kernel_helpers import nbc_extend, sides_from_rectangle
from oracles import betti_bound_holds, region_log2_bound

CHI_A3 = (-9, 15, -7, 1)


def report(name, started, detail=""):
    elapsed = time.time() - started
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {name}: {elapsed:.2f}s{suffix}")


def test_criterion_1_chi_a3_three_methods():
    t = time.time()
    assert whitney_charpoly(3).coeffs == CHI_A3
    assert finite_field_charpoly(3).coeffs == CHI_A3
    assert charpoly_via_nbc(3).coeffs == CHI_A3
    assert time.time() - t < 1.0
    report("criterion 1 chi(A_3) by deletion-restriction/ff/nbc", t)


def test_criterion_2_table_betti_rows():
    t = time.time()
    for n in range(1, 10):
        assert (1 << n) - 1 == GOLDEN_BETTI[1][n]
        assert betti2_closed(n) == GOLDEN_BETTI[2][n]
        assert betti3_closed(n) == GOLDEN_BETTI[3][n]
    for n in range(1, 7):
        depth = min(n, 3)
        row = betti_via_nbc(n, depth)
        if n >= 2:
            assert row[2] == GOLDEN_BETTI[2][n]
        if n >= 3:
            assert row[3] == GOLDEN_BETTI[3][n]
    b4 = {n: betti_via_nbc(n, 4)[4] for n in (4, 5, 6)}
    assert b4 == {4: 104, 5: 5270, 6: 159460}
    assert time.time() - t < 600
    report("criterion 2 Betti rows n<=9 closed, n<=6 NBC", t, f"b4={b4}")


def test_criterion_3_b4_a7():
    # Budgeted as an hours-scale gated run, but the residual-carrying
    # DFS finishes in seconds, so it runs with the rest of the suite.
    t = time.time()
    workers = min(4, os.cpu_count() or 1)
    row = betti_via_nbc(7, 4, workers=workers)
    assert row[4] == 3831835
    report("criterion 3 b4(A_7) depth-limited NBC", t, f"workers={workers}")


def test_criterion_4_region_counts():
    t = time.time()
    for n in range(1, 6):
        assert region_count(charpoly_via_nbc(n)) == GOLDEN_REGIONS[n]
    poly6 = charpoly_via_nbc(6)
    assert region_count(poly6) == 1066044
    for n in range(1, 5):
        assert enumerate_chambers_bruteforce(n) == GOLDEN_REGIONS[n]
    report("criterion 4 R_1..R_6 with chamber oracle n<=4", t)


def test_criterion_5_prototype_coefficients():
    t = time.time()
    assert coefficients(2).coefficients == {3: 2, 4: 3}
    assert coefficients(3).coefficients == {4: 9, 5: 80, 6: 345, 7: 840, 8: 840}
    assert time.time() - t < 60
    report("criterion 5 prototype census i=2,3", t)


def test_criterion_6_fit_matches_census():
    t = time.time()
    for i in (1, 2, 3):
        inputs = [GOLDEN_BETTI[i][n] for n in range(1, 2**i + 1)]
        assert fit_stirling_coefficients(i, inputs).coefficients == coefficients(i).coefficients
    report("criterion 6 Stirling fit equals census", t)


def test_criterion_7_circuit_census():
    t = time.time()
    for n in range(1, 10):
        assert b3_via_circuits(n) == betti3_closed(n)
    for n in range(1, 5):
        tetra = set(tetrahedron_circuits(n))
        assert len(tetra) == count_tetrahedron_circuits(n)
        rects = rectangle_circuit_families(n)
        assert len(rects) == count_rectangle_circuits(n)
    assert time.time() - t < 60
    report("criterion 7 b3 via circuits n<=9, enumerations n<=4", t)


def test_criterion_8_universality():
    t = time.time()
    reference = [[1, -1], [-2, 0], [-1, -1]]
    emb = embed(reference)
    assert emb.ambient_dim == 8
    ok, _ = verify_embedding(emb, reference)
    assert ok and minor_matroid_check(emb, reference)
    rng = random.Random(101)
    for _ in range(100):
        r, n = rng.randint(1, 4), rng.randint(1, 6)
        while True:
            matrix = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
            if all(any(matrix[i][j] for i in range(r)) for j in range(n)):
                break
        e = embed(matrix)
        ok, _ = verify_embedding(e, matrix)
        assert ok
        assert minor_matroid_check(e, matrix)
    assert time.time() - t < 60
    report("criterion 8 embeddings verify, 100 random matrices", t)


def test_criterion_9_property_suites():
    t = time.time()
    rng = random.Random(102)

    # Prop-style partition independence on 200 random prototype/partition pairs
    def random_partition(size, k):
        while True:
            labels = [rng.randrange(k) for _ in range(size)]
            if len(set(labels)) == k:
                blocks = [0] * k
                for e, lab in enumerate(labels):
                    blocks[lab] |= 1 << e
                return Partition(size, tuple(sorted(blocks)))

    seen = 0
    while seen < 200:
        i = rng.randint(1, 3)
        k = rng.randint(i + 1, 2**i)
        p = Prototype(i, k, tuple(rng.sample(range(1, 2**i), k - 1)))
        canonical = classify(p) is PrototypeClass.BROKEN
        n = rng.randint(k - 1, 8)
        tup = realize(p, random_partition(n + 1, k))
        degenerate = 0 in tup or len(set(tup)) != len(tup)
        broken_here = degenerate or not is_nbc(tup, n)
        assert broken_here == canonical
        seen += 1

    # side-midpoint bijection, exhaustive for n <= 4
    for n in (3, 4):
        for smt in side_midpoint_tuples(n):
            assert sides_from_rectangle(rectangle_from_sides(smt), n) == smt

    # incremental NBC rule == definition, exhaustive n <= 3, sampled n = 4, 5
    for n in (2, 3):
        universe = list(range(1, 1 << n))
        for size in range(0, 4):
            for s in combinations(universe, size):
                if not is_nbc(s, n):
                    continue
                start = s[-1] + 1 if s else 1
                for e in range(start, 1 << n):
                    assert nbc_extend(list(s), e, n) == is_nbc(list(s) + [e], n)
    for n in (4, 5):
        universe = list(range(1, 1 << n))
        checked = 0
        while checked < 150:
            s = sorted(rng.sample(universe, rng.randint(0, 3)))
            if not is_nbc(s, n):
                continue
            bigger = [e for e in universe if not s or e > s[-1]]
            if not bigger:
                continue
            e = rng.choice(bigger)
            assert nbc_extend(s, e, n) == is_nbc(s + [e], n)
            checked += 1

    # bound checks on every known table cell
    for i, row in GOLDEN_BETTI.items():
        for n, value in row.items():
            if value is not None:
                assert betti_bound_holds(i, n, value)
    for n, regions in GOLDEN_REGIONS.items():
        if regions is None or n < 2:
            continue
        exponent, _ = region_log2_bound(n)
        assert regions < 2**exponent
    report("criterion 9 property suites", t)


def test_cli_surface_acceptance(capsys):
    t = time.time()
    assert main(["charpoly", "--n", "3", "--method", "nbc", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coeffs"] == ["1", "-7", "15", "-9"]
    assert main(["regions", "--n", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["regions"] == "370"
    with capsys.disabled():
        report("cli acceptance examples", t)
