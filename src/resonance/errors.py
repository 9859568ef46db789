"""Exception types shared across the library, and the size guards.

``GUARDS`` is the one table of default input-size limits.  Every
guarded entry point takes a ``cap`` parameter that defaults to its row
here; ``cap=None`` lifts the guard (the CLI's ``--guard-override``,
which names no row and which ``table1`` refuses: its report runs every
route at its default).
"""


class GuardExceeded(RuntimeError):
    """A computation was requested beyond its configured size guard."""


class InternalCheckError(RuntimeError):
    """Two supposedly-equal internal computations disagreed.

    Raised when redundant formula paths (kept deliberately) produce
    different values; always indicates a bug, never bad user input.
    """


GUARDS = {
    "finite_field_n": 7,      # point counts over n+1 primes: 0.05 s at n=6, 7 s at n=7
    # Work of one finite-field count: C(q+n-3, n-1) sorted points plus a
    # q-byte mask for each of its q-1 jobs.  1.4e8 at n=7, q=67 (2.5 s);
    # n=8's smallest prime, 59, needs 6.2e8; n=2 allows q <= 14142.  It
    # lifts with the finite-field method's ``cap``.
    "finite_field_points": 2 * 10**8,
    # Deletion/restriction, for both chi(A_n) and the chamber count: 0.2-0.3 s,
    # 12350 memo entries and 18061 restriction-table pairs at n=6; 14-18 s,
    # 320 MB, 747587 entries and 276008 pairs at n=7 (restricting every row
    # on every miss took 52-67 s and 447 MB; deleting the first normal
    # instead of the last, 228 s, 1.36 GB and 2.97M entries).
    # With the cap lifted it still stops at n=8: the recursion nests once
    # per hyperplane, past the interpreter's recursion limit at n=9.
    "deletion_restriction_n": 6,
    # Deepest NBC search for each n = 1 .. 7: full depth through n=6.
    # Beyond it, at 2 workers: b_5(A_7) 4-6 s, b_6(A_7) 23-35 s, b_4(A_8) 7-8 s.
    "nbc_depth": {**{n: n for n in range(1, 7)}, 7: 4},
    # Betti index of the prototype census.  It walks every injective map
    # {1..k-1} -> nonempty subsets of [i] for k = i+1 .. 2^i: 13650 maps at
    # i=3, of which 13614 have distinct nonempty sets; one is_nbc call per
    # S_3-orbit makes 2269 calls and 2145 is_broken_circuit calls (0.3 s).
    # More than 15! = 1.3e12 maps at i=4.  That count is too large to
    # evaluate for big i, so the census is limited by its index.
    "prototype_i": 3,
    "embed_ambient": 256,     # ambient dimension of a universality embedding
}


def check_guard(what: str, size: int, cap: int | None) -> None:
    """Raise GuardExceeded when ``size`` is above ``cap``; None lifts it."""
    if cap is not None and size > cap:
        # Past 256 bits the decimal form may be too long to print.
        asked = size if size.bit_length() <= 256 else f"a {size.bit_length()}-bit number"
        raise GuardExceeded(f"{what} capped at {cap} (asked {asked})")
