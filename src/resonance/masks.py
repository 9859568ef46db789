"""Bitmask encoding of nonempty subsets of {1, ..., n}.

A subset I is stored as a plain int whose bit i-1 is set iff i is in I,
so the mask value is sum(2**(i-1) for i in I).  Comparing masks as
integers is the "binary order" used everywhere for broken-circuit
computations.  The same mask plays three roles: a subset of the ground
set, the hyperplane {x : sum_{i in I} x_i = 0}, and the 0/1 normal
vector of that hyperplane.
"""

from __future__ import annotations

MAX_GROUND_SET = 63  # masks stay within one machine word


def mask_elements(mask: int) -> list[int]:
    """1-based elements of a mask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def mask_vector(mask: int, n: int) -> tuple[int, ...]:
    """The 0/1 normal vector of the hyperplane encoded by ``mask``."""
    return tuple((mask >> i) & 1 for i in range(n))


def format_mask(mask: int) -> str:
    return "{" + ",".join(str(e) for e in mask_elements(mask)) + "}"
