"""Command-line surface: every computation, machine-readable output.

Each command is one row of ``COMMANDS``: its help text, its arguments,
a builder that turns the parsed arguments into a JSON payload, and a
renderer for ``--format text``.  ``--format`` and ``--output`` (which
writes that payload) apply to every command; ``--threads`` and
``--guard-override`` only to the commands whose row lists them.  The
latter passes ``cap=None``, lifting the guard that each library
function takes as its ``cap`` default from ``resonance.errors.GUARDS``.

Exit codes: 0 success, 1 usage or validation error, 2 size-guard
violation, 3 internal invariant failure (e.g. a golden-table mismatch
or two formula paths disagreeing).  All big integers are rendered as
decimal strings in JSON so output survives any consumer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import log10

from . import circuits, nbc, table1, universality
from .arrangement import region_count
from .errors import GuardExceeded, InternalCheckError
from .prototypes import coefficients
from .stirling import CLOSED_BETTI, betti_closed, closed_form, fit_stirling_coefficients


def _cap(args):
    """``cap=None`` under ``--guard-override``; otherwise the callee's default guard."""
    return {"cap": None} if args.guard_override else {}


def _prime(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--primes takes comma-separated integers, got {text!r}") from None


def _charpoly(args):
    keywords = _cap(args)
    if args.primes is not None:
        if args.method != "ff":
            raise ValueError(f"--primes applies only to --method ff, not {args.method}")
        keywords["primes"] = [_prime(x) for x in args.primes.split(",") if x.strip()]
    return table1.ROUTES[args.method](args.n, args.threads, **keywords)


def _charpoly_payload(args):
    poly = _charpoly(args)
    return {
        "n": args.n,
        "method": args.method,
        "coeffs": [str(c) for c in reversed(poly.coeffs)],
        "betti": [str(b) for b in poly.betti],
        "regions": str(region_count(poly)),
    }


def _betti(args):
    i_max = args.i_max if args.i_max is not None else min(args.n, 4)
    values = nbc.betti_via_nbc(args.n, i_max, workers=args.threads, **_cap(args))
    return {"n": args.n, "i_max": i_max, "betti": [str(b) for b in values]}


def _regions(args):
    return {"n": args.n, "method": args.method, "regions": str(region_count(_charpoly(args)))}


def _check_printable(what, bits):
    """Refuse, before any work, a result below 2**bits that could have more
    decimal digits than the interpreter prints (CPython's 4300 if unlimited)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if bits * log10(2) > limit:
        raise ValueError(f"{what} may have more than {limit} decimal digits, "
                         "the limit for printing an int")


def _closed_form(args):
    _check_printable(f"b_{args.i}(A_{args.n})", args.i * args.n)  # b_i(A_n) < 2^(i n)
    return {"i": args.i, "n": args.n, "value": str(betti_closed(args.i, args.n))}


def _coefficients(combo):
    pairs = sorted(combo.coefficients.items())
    return {"i": combo.index, "coefficients": {str(k): str(c) for k, c in pairs}}


def _fit_coeffs(args):
    # The fit needs b_i(A_1) .. b_i(A_{2^i}).  Stop at the first value the
    # table lacks; the shift tests len(values) < 2**i without forming 2**i.
    # A negative i reaches the fit with no values and is rejected there.
    values = []
    while args.i >= 0 and len(values) >> args.i == 0:
        v = table1.golden_betti(args.i, len(values) + 1)
        if v is None:
            i = args.i
            raise ValueError(f"golden Betti values for i={i} are not known up to n=2^{i}")
        values.append(v)
    combo = fit_stirling_coefficients(args.i, values)
    return {"inputs": [str(v) for v in values], **_coefficients(combo)}


def _circuits_census(args):
    _check_printable(f"circuit counts of A_{args.n}", 3 * args.n)  # each count < 8^n
    counts = [closed_form(key, args.n) for key in _CENSUS[:-1]]
    counts.append(circuits.b3_via_circuits(args.n))
    return {"n": args.n, **{key: str(c) for key, c in zip(_CENSUS, counts)}}


def _check_embedding(emb, matrix, cert):
    """Add to ``cert`` what both checks of ``emb`` against ``matrix`` find."""
    cert.update(universality.verify_embedding(emb, matrix)[1],
                minor_matroid_check=universality.minor_matroid_check(emb, matrix))


def _embed(args):
    matrix = universality.read_matrix_file(args.input)
    emb = universality.embed(matrix, **_cap(args))
    cert = universality.certificate_dict(emb)
    if args.verify:
        _check_embedding(emb, matrix, cert)
        if not cert["verified"]:
            raise InternalCheckError("embedding failed its own verification")
        if not cert["minor_matroid_check"]:
            raise InternalCheckError("embedding failed the minor matroid check")
    return cert


def _verify_embed(args):
    matrix = universality.read_matrix_file(args.input)
    with open(args.cert, "r", encoding="utf-8") as fh:
        try:
            stored = json.load(fh)
        except RecursionError:
            raise ValueError("certificate nests too deeply to read") from None
    if not isinstance(stored, dict):
        raise ValueError("certificate must be a JSON object")
    emb = universality.embed(matrix, **_cap(args))
    cert = universality.certificate_dict(emb)
    # Each field is compared as JSON text, so 1, 1.0 and true all differ.
    # Keys that ``embed --verify`` adds to the certificate are not compared.
    stale = any(
        json.dumps(stored.get(k), sort_keys=True) != json.dumps(v, sort_keys=True)
        for k, v in cert.items()
    )
    _check_embedding(emb, matrix, cert)
    cert["certificate_consistent"] = not stale
    cert["verified"] = cert["verified"] and not stale and cert["minor_matroid_check"]
    return cert


def _table1(args):
    report = table1.build_report(args.n_max, args.i_max, workers=args.threads)
    if report["mismatches"]:
        raise InternalCheckError(f"{report['mismatches']} golden cells mismatched")
    return report


def _render_coefficients(p):
    return f"i={p['i']}: " + " ".join(f"c[{k}]={v}" for k, v in p["coefficients"].items())


def _render_embedding(p):
    lines = [f"ambient dimension: {p['ambient_dim']}", f"columns: {' '.join(p['column_order'])}"]
    if "verified" in p:
        lines.append(f"verified: {p['verified']}")
    return "\n".join(lines)


def _render_table1(p):
    lines = [
        f"{c['row']}(A_{c['n']}): golden={c['golden']} computed={c['computed']} "
        f"[{c['status']}; {c['method']}]"
        for c in p["cells"]
    ]
    lines.append(f"computed cells: {p['computed']}, mismatches: {p['mismatches']}")
    return "\n".join(lines)


_THREADS = ("--threads", {"type": int, "default": 1, "help": "worker processes for the NBC "
                          "search and the point count; results do not depend on it"})
_OVERRIDE = ("--guard-override", {"action": "store_true",
                                  "help": "run beyond the default size guards (expensive)"})
_N = ("--n", {"type": int, "required": True})
_I = ("--i", {"type": int, "required": True})
_METHODS = ("--method", {"choices": tuple(table1.ROUTES), "default": "ff"})
_PRIMES = ("--primes", {"help": "comma-separated primes for the ff method"})
_INPUT = ("--input", {"required": True})
_CENSUS = ("intersecting_triples", "tetrahedron_circuits", "rectangle_circuits", "b3")

COMMANDS = {
    "charpoly": (
        "characteristic polynomial of A_n",
        [_N, _METHODS, _PRIMES, _THREADS, _OVERRIDE],
        _charpoly_payload,
        lambda p: f"chi(A_{p['n']}; t) coefficients (descending): {' '.join(p['coeffs'])}\n"
        f"betti: {' '.join(p['betti'])}\nregions: {p['regions']}  (method: {p['method']})",
    ),
    "betti": (
        "Betti numbers by depth-limited NBC search",
        [_N, ("--i-max", {"type": int}), _THREADS, _OVERRIDE],
        _betti,
        lambda p: f"b_0..b_{p['i_max']} of A_{p['n']}: {' '.join(p['betti'])}",
    ),
    "regions": (
        "chamber count of A_n",
        [_N, _METHODS, _PRIMES, _THREADS, _OVERRIDE],
        _regions,
        lambda p: f"regions of A_{p['n']}: {p['regions']}  (method: {p['method']})",
    ),
    "closed-form": (
        f"closed-form Betti numbers (i <= {max(CLOSED_BETTI)})",
        [_I, _N],
        _closed_form,
        lambda p: f"b_{p['i']}(A_{p['n']}) = {p['value']}",
    ),
    "fit-coeffs": (
        "fit Stirling coefficients from golden Betti values",
        [_I],
        _fit_coeffs,
        _render_coefficients,
    ),
    "prototypes": (
        "Stirling coefficients by prototype census",
        [_I],
        lambda args: _coefficients(coefficients(args.i)),
        _render_coefficients,
    ),
    "circuits-census": (
        "triples, tetrahedra, rectangles and b3",
        [_N],
        _circuits_census,
        lambda p: "\n".join(f"{key}: {p[key]}" for key in _CENSUS),
    ),
    "embed": (
        "compile a matrix into a resonance minor",
        [_INPUT, ("--verify", {"action": "store_true"}), _OVERRIDE],
        _embed,
        _render_embedding,
    ),
    "verify-embed": (
        "re-verify a stored embedding certificate",
        [_INPUT, ("--cert", {"required": True}), _OVERRIDE],
        _verify_embed,
        _render_embedding,
    ),
    "table1": (
        "recompute golden table cells and compare",
        [("--n-max", {"type": int, "default": 4}), ("--i-max", {"type": int, "default": 4}),
         _THREADS],
        _table1,
        _render_table1,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resonance",
        description="Exact chamber counts, Betti numbers and matroid embeddings "
        "for the resonance arrangement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write JSON payload to this path")
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    _, _, build, render = COMMANDS[args.command]
    try:
        payload = {**build(args), "command": args.command}
        document = json.dumps(payload, indent=2, sort_keys=True)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(document + "\n")
    except GuardExceeded as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(document if args.format == "json" else render(payload), flush=True)
    except BrokenPipeError:
        # The reader left.  Point stdout at devnull, so that the flush at
        # exit does not fail again with "Exception ignored".
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
