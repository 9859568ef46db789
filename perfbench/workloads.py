"""The benchmark's workloads: which public calls each one makes, and the
check that every result must pass.

Every result is compared with ``table1.GOLDEN_*`` or with an
independent route, never with numbers from an earlier benchmark run.
Functions are looked up on their modules at call time (``nbc.betti_via_nbc``,
not a name bound at import), so the wrappers ``spans.Tracer`` installs
see every call.

Why these four: each is dominated by a different layer, so a change to
one layer should move one workload and leave the others alone.

- ``ff6``: finite-field point counting, per prime.
- ``regions6``: the deletion/restriction memo (``_count_regions``).
- ``betti7``: the NBC search, deep and narrow (A_6, one worker) and wide
  and shallow (A_7 depth 4, a process pool), plus the closed-form,
  circuit and prototype routes to b_2 and b_3.
- ``embed``: dense Fraction pivoting in ``verify_embedding`` and Bareiss
  ranks in ``minor_matroid_check``, on matrices made from the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from resonance import arrangement, circuits, nbc, prototypes, stirling, table1, universality


class Checker:
    """Counts checked operations and records each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, label, compute, want):
        """Call ``compute()`` and compare its result with ``want``.

        A call that raises is a failed operation, not a crash of the
        benchmark: it is recorded and the workload goes on.
        """
        self.attempted += 1
        try:
            got = compute()
        except Exception as exc:
            self.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return
        if got != want:
            self.failures.append(f"{label}: got {got!r}, expected {want!r}")


def golden_betti(n: int, i_max: int | None = None) -> tuple[int, ...]:
    """b_0 .. b_{i_max} of A_n (all of them when ``i_max`` is None).

    The golden table stops at b_4.  Up to two further numbers follow from
    the table's region count, which is the sum of all b_i, and from
    chi(1) = 0, which holds because the arrangement is central and makes
    the alternating sum of the b_i vanish.
    """
    top = n if i_max is None else i_max
    row = [1] + [table1.GOLDEN_BETTI[i][n] for i in range(1, min(top, 4) + 1)]
    missing = top + 1 - len(row)
    if missing == 0:
        return tuple(row)
    if i_max is not None or missing > 2:
        raise ValueError(f"the golden table does not determine b_0..b_{top} of A_{n}")
    total = table1.GOLDEN_REGIONS[n] - sum(row)
    if missing == 1:
        return tuple(row + [total])
    # b_5 + b_6 = total and -b_5 + b_6 = -(b_0 - b_1 + ... + b_4).
    alternating = -sum((-1) ** i * b for i, b in enumerate(row))
    b6, odd = divmod(total + alternating, 2)
    if odd or b6 < 0 or b6 > total:
        raise ValueError(f"golden values for A_{n} are inconsistent")
    return tuple(row + [total - b6, b6])


def ff6(check: Checker, toy: bool = False, **_):
    n = 4 if toy else 6
    check.expect(
        f"finite_field_charpoly({n})",
        lambda: arrangement.finite_field_charpoly(n).betti,
        golden_betti(n),
    )


def regions6(check: Checker, toy: bool = False, **_):
    for n in range(1, (4 if toy else 6) + 1):
        check.expect(
            f"enumerate_chambers_bruteforce({n})",
            lambda: arrangement.enumerate_chambers_bruteforce(n, cap=None),
            table1.GOLDEN_REGIONS[n],
        )
    for n in range(1, 5):
        check.expect(
            f"whitney_charpoly({n})", lambda: arrangement.whitney_charpoly(n).betti, golden_betti(n)
        )


def betti7(check: Checker, toy: bool = False, workers: int = 1, **_):
    deep, wide, depth, top = (4, 4, 3, 4) if toy else (6, 7, 4, 9)
    check.expect(
        f"charpoly_via_nbc({deep})",
        lambda: nbc.charpoly_via_nbc(deep, workers=1).betti,
        golden_betti(deep),
    )
    check.expect(
        f"betti_via_nbc({wide}, {depth}, workers={workers})",
        lambda: tuple(nbc.betti_via_nbc(wide, depth, workers=workers)),
        golden_betti(wide, depth),
    )
    for n in range(1, top + 1):
        b2, b3 = table1.GOLDEN_BETTI[2][n], table1.GOLDEN_BETTI[3][n]
        check.expect(f"betti2_closed({n})", lambda: stirling.betti2_closed(n), b2)
        check.expect(f"betti3_closed({n})", lambda: stirling.betti3_closed(n), b3)
        check.expect(f"b3_via_circuits({n})", lambda: circuits.b3_via_circuits(n), b3)
        check.expect(
            f"betti_via_prototypes(3, {n})", lambda: prototypes.betti_via_prototypes(3, n), b3
        )


# (rows, cols, ambient dimension) of each matrix in the batch.  Verification
# cost grows with the cube of the ambient dimension, and a fixed ambient
# dimension per slot keeps the cost of a batch close across seeds.  At
# 210 the batch takes 7-10 s, so a 25-second run usually averages two
# repetitions; a 250 matrix alone takes 8-13 s.
EMBED_BATCH = ((2, 2, 50), (2, 3, 90), (3, 3, 130), (3, 4, 170), (4, 4, 210))
EMBED_TOY = ((2, 2, 20),)


def _column_levels(rows, cols, ambient):
    """(top, bottom) per column with rows + sum(bottom + 2 * top) == ambient.

    ``embed`` adds one coordinate per negative level and two per positive
    level, so a column with maximum ``top`` and minimum ``-bottom`` adds
    ``bottom + 2 * top`` coordinates.
    """
    per, rem = divmod(ambient - rows, cols)
    levels = []
    for j in range(cols):
        budget = per + (rem if j == 0 else 0)
        top = budget // 3
        levels.append((top, budget - 2 * top))
    return levels


def embed_inputs(seed: int, toy: bool = False):
    """The embed batch for ``seed``: (matrix text, cleared integer rows,
    ambient dimension) per matrix.

    Each column holds its maximum and minimum at rows the seed picks and
    other entries drawn between them, and is written over a denominator
    the seed picks.  Scaling a column does not change its matroid, and
    ``embed`` clears the denominator again, so the expected cleared
    matrix is the integer one drawn here.
    """
    rng = random.Random(seed)
    batch = []
    for rows, cols, ambient in EMBED_TOY if toy else EMBED_BATCH:
        columns = []
        for top, bottom in _column_levels(rows, cols, ambient):
            col = [rng.randint(-bottom, top) for _ in range(rows)]
            hi, lo = rng.sample(range(rows), 2)
            col[hi], col[lo] = top, -bottom
            denominator = rng.choice((1, 2, 3, 5, 7))
            if gcd(denominator, *col) != 1:
                denominator = 1
            columns.append((col, denominator))
        lines = [f"# seed {seed}", f"{rows} {cols}"]
        for i in range(rows):
            lines.append(" ".join(str(Fraction(col[i], d)) for col, d in columns))
        cleared = tuple(tuple(col[i] for col, _ in columns) for i in range(rows))
        batch.append(("\n".join(lines) + "\n", cleared, ambient))
    return batch


def _embed_and_verify(text):
    matrix = universality.parse_matrix_text(text)
    emb = universality.embed(matrix)
    ok, _ = universality.verify_embedding(emb, matrix)
    return emb.cleared_matrix, emb.ambient_dim, ok, universality.minor_matroid_check(emb, matrix)


def embed(check: Checker, toy: bool = False, seed: int = 0, **_):
    for k, (text, cleared, ambient) in enumerate(embed_inputs(seed, toy)):
        check.expect(
            f"embed matrix {k} (ambient {ambient})",
            lambda: _embed_and_verify(text),
            (cleared, ambient, True, True),
        )


WORKLOADS = {"ff6": ff6, "regions6": regions6, "betti7": betti7, "embed": embed}
