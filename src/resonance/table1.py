"""Golden reference values for Betti numbers and chamber counts.

The table ships with the package and is never overwritten by
computations; unknown entries are explicit Nones.  The report
recomputes every reachable cell by at least one method and marks it
MATCH or MISMATCH against the golden value; a region count comes from
chi(A_n) computed by every row of ``ROUTES`` the default size guards
allow, named as ``--method`` names it, and the routes must agree on the
whole polynomial.  A cell beyond the default size guards is reported as
"needs long run", and one past the range of every route as "no route
reaches n=...": neither is attempted.
"""

from __future__ import annotations

from . import nbc
from .arrangement import finite_field_charpoly, region_count, whitney_charpoly
from .errors import GuardExceeded, InternalCheckError
from .stirling import CLOSED_BETTI, betti_closed

GOLDEN_BETTI = {
    1: {1: 1, 2: 3, 3: 7, 4: 15, 5: 31, 6: 63, 7: 127, 8: 255, 9: 511},
    2: {1: 0, 2: 2, 3: 15, 4: 80, 5: 375, 6: 1652, 7: 7035, 8: 29360, 9: 120975},
    3: {1: 0, 2: 0, 3: 9, 4: 170, 5: 2130, 6: 22435, 7: 215439, 8: 1957200, 9: 17153460},
    4: {1: 0, 2: 0, 3: 0, 4: 104, 5: 5270, 6: 159460, 7: 3831835, 8: None, 9: None},
}

GOLDEN_REGIONS = {
    1: 2,
    2: 6,
    3: 32,
    4: 370,
    5: 11292,
    6: 1066044,
    7: 347326352,
    8: 419172756930,
    9: None,
}


# Every route to chi(A_n), keyed by its ``--method`` name: the CLI
# dispatches through this table and the report runs its rows in order.
# Each row looks its function up in this module when called, so a test
# can patch it here.  ``keywords`` (``cap``, ``primes``) pass through.
ROUTES = {
    "nbc": lambda n, workers, **keywords: nbc.charpoly_via_nbc(n, workers=workers, **keywords),
    "ff": lambda n, workers, **keywords: finite_field_charpoly(n, workers=workers, **keywords),
    "whitney": lambda n, workers, **keywords: whitney_charpoly(n, **keywords),
}


def golden_betti(i: int, n: int):
    if i == 0 and n >= 1:
        return 1  # chi(A_n) is monic
    return GOLDEN_BETTI.get(i, {}).get(n)


def _compute_betti(i, n, workers):
    if i in CLOSED_BETTI:
        return betti_closed(i, n), "closed form"
    if n < i:
        return 0, "rank bound"
    try:
        return nbc.betti_via_nbc(n, i, workers=workers)[i], f"nbc depth {i}"
    except GuardExceeded:
        return None, "needs long run"
    except ValueError:
        return None, f"no route reaches n={n}"


def _compute_regions(n, workers):
    polys, guarded = {}, False
    for method, route in ROUTES.items():
        try:
            polys[method] = route(n, workers)
        except GuardExceeded:
            guarded = True
        except ValueError:
            pass
    if not polys:
        return None, "needs long run" if guarded else f"no route reaches n={n}"
    if len(set(polys.values())) > 1:
        betti = {method: p.betti for method, p in polys.items()}
        raise InternalCheckError(f"chi(A_{n}) differs between routes: {betti}")
    return region_count(next(iter(polys.values()))), " + ".join(polys)


def build_report(n_max: int, i_max: int, workers: int = 1) -> dict:
    """Recompute reachable golden cells and compare; never mutates the table."""
    if not 1 <= n_max <= max(GOLDEN_REGIONS):
        raise ValueError(f"n_max must be in 1..{max(GOLDEN_REGIONS)}")
    if not 1 <= i_max <= max(GOLDEN_BETTI):
        raise ValueError(f"i_max must be in 1..{max(GOLDEN_BETTI)}")
    cells = []
    for i in range(1, i_max + 1):
        for n in range(1, n_max + 1):
            golden = golden_betti(i, n)
            value, method = _compute_betti(i, n, workers)
            cells.append(_cell(f"b{i}", n, golden, value, method))
    for n in range(1, n_max + 1):
        golden = GOLDEN_REGIONS.get(n)
        value, method = _compute_regions(n, workers)
        cells.append(_cell("R", n, golden, value, method))
    return {
        "n_max": n_max,
        "i_max": i_max,
        "cells": cells,
        "mismatches": sum(1 for c in cells if c["status"] == "MISMATCH"),
        "computed": sum(1 for c in cells if c["computed"] is not None),
    }


def _cell(row, n, golden, value, method):
    if golden is None:
        status = "UNKNOWN" if value is None else "NEW"
    elif value is None:
        status = "SKIPPED"
    else:
        status = "MATCH" if value == golden else "MISMATCH"
    return {
        "row": row,
        "n": n,
        "golden": None if golden is None else str(golden),
        "computed": None if value is None else str(value),
        "method": method,
        "status": status,
    }
