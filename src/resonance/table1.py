"""Golden reference values for Betti numbers and chamber counts.

The table ships with the package and is never overwritten by
computations; unknown entries are explicit Nones.  The report
recomputes every reachable cell by every route the default size guards
allow: the rows of ``BETTI_ROUTES`` for b_i(A_n) (0 by the rank bound
when n < i) and of ``ROUTES`` for chi(A_n), named as ``--method`` names
them.  The routes must agree, on the whole polynomial for chi, and the
value is marked MATCH or MISMATCH against the golden one.  A cell
beyond the default size guards is reported as "needs long run", and one
past the range of every route as "no route reaches n=...": neither is
attempted.
"""

from __future__ import annotations

from . import nbc
from .arrangement import finite_field_charpoly, region_count, whitney_charpoly
from .errors import GuardExceeded, InternalCheckError
from .stirling import betti_closed

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

# Every route to b_i(A_n), looked up here as ``ROUTES`` are; ``betti_closed``
# refuses an i with no ``betti{i}`` row.
BETTI_ROUTES = {
    "closed form": lambda i, n, workers: betti_closed(i, n),
    "nbc": lambda i, n, workers: nbc.betti_via_nbc(n, i, workers=workers)[i],
}


def golden_betti(i: int, n: int):
    if i == 0 and n >= 1:
        return 1  # chi(A_n) is monic
    return GOLDEN_BETTI.get(i, {}).get(n)


def _agreed(what, n, routes, *args):
    """The value the routes that run agree on, and the routes' names.

    ValueError (out of range) and GuardExceeded (past its default guard) skip a route.
    """
    values, guarded = {}, False
    for method, route in routes.items():
        try:
            values[method] = route(*args)
        except GuardExceeded:
            guarded = True
        except ValueError:
            pass
    if not values:
        return None, "needs long run" if guarded else f"no route reaches n={n}"
    if len(set(values.values())) > 1:
        raise InternalCheckError(f"{what} differs between routes: {values}")
    return next(iter(values.values())), " + ".join(values)


def build_report(n_max: int, i_max: int, workers: int = 1) -> dict:
    """Recompute reachable golden cells and compare; never mutates the table."""
    if not 1 <= n_max <= max(GOLDEN_REGIONS):
        raise ValueError(f"n_max must be in 1..{max(GOLDEN_REGIONS)}")
    if not 1 <= i_max <= max(GOLDEN_BETTI):
        raise ValueError(f"i_max must be in 1..{max(GOLDEN_BETTI)}")
    cells = []
    for i in range(1, i_max + 1):
        for n in range(1, n_max + 1):
            if n < i:
                value, method = 0, "rank bound"
            else:
                value, method = _agreed(f"b_{i}(A_{n})", n, BETTI_ROUTES, i, n, workers)
            cells.append(_cell(f"b{i}", n, golden_betti(i, n), value, method))
    for n in range(1, n_max + 1):
        chi, method = _agreed(f"chi(A_{n})", n, ROUTES, n, workers)
        value = None if chi is None else region_count(chi)
        cells.append(_cell("R", n, GOLDEN_REGIONS.get(n), value, method))
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
