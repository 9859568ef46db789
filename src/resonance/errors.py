"""Exception types shared across the library, and the size guards.

``GUARDS`` is the one table of default input-size limits, one row per
kernel.  Every guarded entry point takes a ``cap`` parameter that
defaults to its row here; ``cap=None`` lifts the guard (the CLI's
``--guard-override``, which names no row).  An entry point checks the
input against its kernel's own range first (ValueError, exit 1), and
only then its guard (GuardExceeded, exit 2): so ``cap=None`` lifts every
GuardExceeded, and no row repeats a range.  ``table1`` takes no
override: its report runs every route at its default.
"""


class GuardExceeded(RuntimeError):
    """A computation was requested beyond its configured size guard."""


class InternalCheckError(RuntimeError):
    """Two supposedly-equal internal computations disagreed.

    Raised when redundant formula paths (kept deliberately) produce
    different values; always indicates a bug, never bad user input.
    """


GUARDS = {
    # Work of one finite-field count: C(q+n-3, n-1) sorted points plus,
    # from n=3, (q-1) * q, the bits of its first prefixes (1, x_2).  1.4e8
    # at n=7, q=67 (0.8 s); n=8's smallest prime, 59, needs 6.2e8 (1-2 s);
    # n=3 allows q <= 11547 (0.1 s).  n=2 forms no masks and only counts
    # its q - 2 values of x_2, so it allows every prime q <= 2*10^8 + 1
    # (under 1 ms).  So the default primes run to n=7 (0.01 s at n=6,
    # 1.7 s at n=7), and n=8 needs the guard lifted.
    "finite_field_points": 2 * 10**8,
    # Deletion/restriction, for both chi(A_n) and the chamber count: 0.13 s,
    # 1420 memo entries and 17547 restriction-table pairs at n=6; 6-9 s,
    # 66 MB, 68443 entries and 272237 pairs at n=7 (the recursive chain,
    # which memoized every deletion too: 12350 entries and 0.13-0.15 s at
    # n=6, 747587 entries, 7-10 s and 320 MB at n=7).
    "deletion_restriction_n": 6,
    # Deepest NBC search for each n = 1 .. 7: full depth through n=6, and
    # n=8 only with the guard lifted.  Beyond it, at 2 workers: b_5(A_7)
    # 1.4-2.1 s, b_6(A_7) 10-12.5 s, b_4(A_8) 2.0-2.2 s at its depth prime
    # 7 (2.9-3.6 s at p = 79), chi(A_7) 9.7-12.1 s (86 s when the rank-7
    # level was formed).
    "nbc_depth": {**{n: n for n in range(1, 7)}, 7: 4},
    "embed_ambient": 256,     # ambient dimension of a universality embedding
}


def check_guard(what: str, size: int, cap: int | None) -> None:
    """Raise GuardExceeded when ``size`` is above ``cap``; None lifts it."""
    if cap is not None and size > cap:
        # Past 256 bits the decimal form may be too long to print.
        asked = size if size.bit_length() <= 256 else f"a {size.bit_length()}-bit number"
        raise GuardExceeded(f"{what} capped at {cap} (asked {asked})")
