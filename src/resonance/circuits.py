"""Census of the four-element circuits feeding the third Betti number.

b_3 counts pairwise-intersecting triples that are not broken circuits.
The broken triples split into those completing to a "tetrahedron"
relation (three indicators summing to twice a fourth) and those
completing to a "rectangle" relation (two opposite pairs with equal
indicator sums), so

    b_3(A_n) = intersecting triples - tetrahedra - rectangles.

Each count is a row of ``stirling.CLOSED_FORMS``, evaluated both as a
Stirling combination and as an exponential sum that must agree:
``intersecting_triples`` (families of three distinct subsets of [n],
pairwise intersecting), ``tetrahedron_circuits`` (S(n+1, 4), one per
partition of [n+1] into four blocks) and ``rectangle_circuits``
(3*S(n+1,4) + 12*S(n+1,5) + 15*S(n+1,6), each the image of eight
labeled side-midpoint tuples).
``b3_via_circuits`` checks the difference against
``stirling.betti3_closed`` at every n; the explicit tetrahedron and
side-midpoint enumerations that the formulas count live in the tests'
``oracles``.
"""

from __future__ import annotations

from .errors import InternalCheckError
from .stirling import betti3_closed, closed_form


def b3_via_circuits(n: int) -> int:
    """Third Betti number assembled from the circuit census, checked
    against the closed form ``betti3_closed``."""
    value = (
        closed_form("intersecting_triples", n)
        - closed_form("tetrahedron_circuits", n)
        - closed_form("rectangle_circuits", n)
    )
    closed = betti3_closed(n)
    if value != closed:
        raise InternalCheckError(
            f"circuit census gives b3(A_{n}) = {value}, the closed form {closed}"
        )
    return value
