"""Census of the four-element circuits feeding the third Betti number.

b_3 counts pairwise-intersecting triples that are not broken circuits.
The broken triples split into those completing to a "tetrahedron"
relation (three indicators summing to twice a fourth) and those
completing to a "rectangle" relation (two opposite pairs with equal
indicator sums), so

    b_3(A_n) = intersecting triples - tetrahedra - rectangles.

Each count is a closed formula in Stirling numbers.  ``b3_via_circuits``
checks the difference against ``stirling.betti3_closed`` at every n;
the explicit tetrahedron and side-midpoint enumerations that the
formulas count live in the tests' ``oracles``.
"""

from __future__ import annotations

from .errors import InternalCheckError
from .stirling import betti3_closed, stirling2


def count_intersecting_triples(n: int) -> int:
    """Families of three distinct subsets of [n], pairwise intersecting.

    Evaluated through both the exponential formula and its Stirling
    expansion; they must agree.
    """
    if n < 1:
        raise ValueError("n must be positive")
    num = 8**n - 3 * 6**n + 3 * 5**n - 4 * 4**n + 3 * 3**n + 2 * 2**n - 2
    via_powers, rem = divmod(num, 6)
    via_stirling = (
        13 * stirling2(n + 1, 4)
        + 92 * stirling2(n + 1, 5)
        + 360 * stirling2(n + 1, 6)
        + 840 * stirling2(n + 1, 7)
        + 840 * stirling2(n + 1, 8)
    )
    if rem or via_powers != via_stirling:
        raise InternalCheckError(
            f"triple-count expressions disagree at n={n}: {via_powers} vs {via_stirling}"
        )
    return via_powers


def count_tetrahedron_circuits(n: int) -> int:
    """S(n+1, 4): one circuit per partition of [n+1] into four blocks."""
    if n < 1:
        raise ValueError("n must be positive")
    return stirling2(n + 1, 4)


def count_rectangle_circuits(n: int) -> int:
    """3*S(n+1,4) + 12*S(n+1,5) + 15*S(n+1,6) rectangle circuits, each
    the image of eight labeled side-midpoint tuples."""
    if n < 1:
        raise ValueError("n must be positive")
    return 3 * stirling2(n + 1, 4) + 12 * stirling2(n + 1, 5) + 15 * stirling2(n + 1, 6)


def b3_via_circuits(n: int) -> int:
    """Third Betti number assembled from the circuit census, checked
    against the closed form ``betti3_closed``."""
    value = (
        count_intersecting_triples(n)
        - count_tetrahedron_circuits(n)
        - count_rectangle_circuits(n)
    )
    closed = betti3_closed(n)
    if value != closed:
        raise InternalCheckError(
            f"circuit census gives b3(A_{n}) = {value}, the closed form {closed}"
        )
    return value
