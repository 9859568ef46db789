"""Command-line surface: every computation, machine-readable output.

Exit codes: 0 success, 1 usage or validation error, 2 size-guard
violation, 3 internal invariant failure (e.g. a golden-table mismatch
or two formula paths disagreeing).  All big integers are rendered as
decimal strings in JSON so output survives any consumer.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import circuits, nbc, prototypes, stirling, table1, universality
from .arrangement import (
    CHAMBER_CAP,
    FINITE_FIELD_CAP,
    WHITNEY_CAP,
    enumerate_chambers_bruteforce,
    finite_field_charpoly,
    region_count,
    whitney_charpoly,
)
from .errors import GuardExceeded, InternalCheckError

__all__ = ["JobConfig", "main", "run"]

DEFAULT_GUARDS = {
    "whitney": WHITNEY_CAP,
    "finite_field": FINITE_FIELD_CAP,
    "nbc_full": nbc.NBC_FULL_CAP,
    "nbc_depth": nbc.NBC_DEPTH_CAP,
    "chambers": CHAMBER_CAP,
    "prototypes_i": prototypes.PROTOTYPE_INDEX_CAP,
}


@dataclass
class JobConfig:
    """Everything one invocation needs, resolved from flags."""

    command: str
    n: int | None = None
    i: int | None = None
    i_max: int | None = None
    method: str = "auto"
    primes: list[int] | None = None
    threads: int = 1
    input_path: str | None = None
    output_path: str | None = None
    cert_path: str | None = None
    fmt: str = "text"
    guards: dict = field(default_factory=lambda: dict(DEFAULT_GUARDS))
    guard_override: bool = False

    def cap(self, name):
        return None if self.guard_override else self.guards[name]


def _charpoly(cfg: JobConfig):
    n = cfg.n
    method = cfg.method
    if method == "auto":
        method = "nbc" if n <= (cfg.cap("nbc_full") or n) else "ff"
    if method == "whitney":
        poly = whitney_charpoly(n, cap=cfg.cap("whitney"))
    elif method == "ff":
        poly = finite_field_charpoly(
            n, primes=cfg.primes, cap=cfg.cap("finite_field"), threads=cfg.threads
        )
    elif method == "nbc":
        poly = nbc.charpoly_via_nbc(n, workers=cfg.threads, cap=cfg.cap("nbc_full"))
    else:
        raise ValueError(f"unknown method {method!r}")
    return poly, method


def _coeffs_desc(poly):
    return [str(c) for c in reversed(poly.coeffs)]


def run(cfg: JobConfig) -> dict:
    """Execute one job and return its result payload."""
    if cfg.command == "charpoly":
        poly, method = _charpoly(cfg)
        return {
            "command": "charpoly",
            "n": cfg.n,
            "method": method,
            "coeffs": _coeffs_desc(poly),
            "betti": [str(b) for b in poly.betti],
            "regions": str(region_count(poly)),
        }
    if cfg.command == "betti":
        i_max = cfg.i_max if cfg.i_max is not None else min(cfg.n, 4)
        values = nbc.betti_via_nbc(
            cfg.n,
            i_max,
            workers=cfg.threads,
            cap_full=cfg.cap("nbc_full"),
            cap_depth=cfg.cap("nbc_depth"),
        )
        return {
            "command": "betti",
            "n": cfg.n,
            "i_max": i_max,
            "betti": [str(b) for b in values],
        }
    if cfg.command == "regions":
        if cfg.method == "chambers":
            count = enumerate_chambers_bruteforce(cfg.n, cap=cfg.cap("chambers"))
            return {"command": "regions", "n": cfg.n, "method": "chambers", "regions": str(count)}
        poly, method = _charpoly(cfg)
        return {
            "command": "regions",
            "n": cfg.n,
            "method": method,
            "regions": str(region_count(poly)),
        }
    if cfg.command == "closed-form":
        if cfg.i == 1:
            value = (1 << cfg.n) - 1
        elif cfg.i == 2:
            value = stirling.betti2_closed(cfg.n)
        elif cfg.i == 3:
            value = stirling.betti3_closed(cfg.n)
        else:
            raise ValueError("closed forms exist for i in {1, 2, 3}")
        return {"command": "closed-form", "i": cfg.i, "n": cfg.n, "value": str(value)}
    if cfg.command == "fit-coeffs":
        # A negative i reaches the fit with no values and is rejected there.
        size = 2**cfg.i if cfg.i >= 0 else 0
        values = []
        for n in range(1, size + 1):
            v = table1.golden_betti(cfg.i, n)
            if v is None:
                raise ValueError(
                    f"golden Betti values for i={cfg.i} are not known up to n={size}"
                )
            values.append(v)
        combo = stirling.fit_stirling_coefficients(cfg.i, values)
        return {
            "command": "fit-coeffs",
            "i": cfg.i,
            "inputs": [str(v) for v in values],
            "coefficients": {str(k): str(c) for k, c in sorted(combo.coefficients.items())},
        }
    if cfg.command == "prototypes":
        combo = prototypes.coefficients(cfg.i, cap=cfg.cap("prototypes_i"))
        return {
            "command": "prototypes",
            "i": cfg.i,
            "coefficients": {str(k): str(c) for k, c in sorted(combo.coefficients.items())},
        }
    if cfg.command == "circuits-census":
        n = cfg.n
        return {
            "command": "circuits-census",
            "n": n,
            "intersecting_triples": str(circuits.count_intersecting_triples(n)),
            "tetrahedron_circuits": str(circuits.count_tetrahedron_circuits(n)),
            "rectangle_circuits": str(circuits.count_rectangle_circuits(n)),
            "b3": str(circuits.b3_via_circuits(n)),
        }
    if cfg.command == "embed":
        matrix = universality.read_matrix_file(cfg.input_path)
        emb = universality.embed(matrix)
        if cfg.method == "verify":
            ok, cert = universality.verify_embedding(emb, matrix)
            cert["minor_matroid_check"] = universality.minor_matroid_check(emb, matrix)
            if not ok:
                raise InternalCheckError("embedding failed its own verification")
        else:
            cert = universality.certificate_dict(emb)
        if cfg.output_path:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                json.dump(cert, fh, indent=2, sort_keys=True)
                fh.write("\n")
        cert["command"] = "embed"
        return cert
    if cfg.command == "verify-embed":
        matrix = universality.read_matrix_file(cfg.input_path)
        with open(cfg.cert_path, "r", encoding="utf-8") as fh:
            stored = json.load(fh)
        if not isinstance(stored, dict):
            raise ValueError("certificate must be a JSON object")
        emb = universality.embed(matrix)
        fresh = universality.certificate_dict(emb)
        stale = any(stored.get(k) != fresh[k] for k in ("carriers", "helpers", "column_order"))
        ok, cert = universality.verify_embedding(emb, matrix)
        cert["command"] = "verify-embed"
        cert["certificate_consistent"] = not stale
        cert["verified"] = ok and not stale
        return cert
    if cfg.command == "table1":
        n_max = cfg.n if cfg.n is not None else 4
        i_max = cfg.i_max if cfg.i_max is not None else 4
        report = table1.build_report(n_max, i_max, workers=cfg.threads)
        report["command"] = "table1"
        if report["mismatches"]:
            raise InternalCheckError(f"{report['mismatches']} golden cells mismatched")
        return report
    raise ValueError(f"unknown command {cfg.command!r}")


def _render_text(payload: dict) -> str:
    cmd = payload.get("command")
    lines = []
    if cmd == "charpoly":
        lines.append(f"chi(A_{payload['n']}; t) coefficients (descending): "
                     + " ".join(payload["coeffs"]))
        lines.append("betti: " + " ".join(payload["betti"]))
        lines.append(f"regions: {payload['regions']}  (method: {payload['method']})")
    elif cmd == "betti":
        lines.append(f"b_0..b_{payload['i_max']} of A_{payload['n']}: "
                     + " ".join(payload["betti"]))
    elif cmd == "regions":
        lines.append(f"regions of A_{payload['n']}: {payload['regions']}  "
                     f"(method: {payload['method']})")
    elif cmd == "closed-form":
        lines.append(f"b_{payload['i']}(A_{payload['n']}) = {payload['value']}")
    elif cmd in ("fit-coeffs", "prototypes"):
        pairs = " ".join(f"c[{k}]={v}" for k, v in payload["coefficients"].items())
        lines.append(f"i={payload['i']}: {pairs}")
    elif cmd == "circuits-census":
        for key in ("intersecting_triples", "tetrahedron_circuits", "rectangle_circuits", "b3"):
            lines.append(f"{key}: {payload[key]}")
    elif cmd in ("embed", "verify-embed"):
        lines.append(f"ambient dimension: {payload['ambient_dim']}")
        lines.append(f"columns: {' '.join(payload['column_order'])}")
        if "verified" in payload:
            lines.append(f"verified: {payload['verified']}")
    elif cmd == "table1":
        for cell in payload["cells"]:
            lines.append(
                f"{cell['row']}(A_{cell['n']}): golden={cell['golden']} "
                f"computed={cell['computed']} [{cell['status']}; {cell['method']}]"
            )
        lines.append(f"computed cells: {payload['computed']}, mismatches: {payload['mismatches']}")
    else:
        lines.append(json.dumps(payload, indent=2, sort_keys=True))
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resonance",
        description="Exact chamber counts, Betti numbers and matroid embeddings "
        "for the resonance arrangement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--guard-override", action="store_true",
                       help="run beyond the default size guards (expensive)")
        p.add_argument("--output", help="write JSON payload to this path")
        return p

    p = add("charpoly", help="characteristic polynomial of A_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("auto", "whitney", "ff", "nbc"), default="auto")
    p.add_argument("--primes", help="comma-separated primes for the ff method")

    p = add("betti", help="Betti numbers by depth-limited NBC search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i-max", type=int)

    p = add("regions", help="chamber count of A_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("auto", "whitney", "ff", "nbc", "chambers"),
                   default="auto")
    p.add_argument("--primes")

    p = add("closed-form", help="closed-form Betti numbers (i <= 3)")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("fit-coeffs", help="fit Stirling coefficients from golden Betti values")
    p.add_argument("--i", type=int, required=True)

    p = add("prototypes", help="Stirling coefficients by prototype census")
    p.add_argument("--i", type=int, required=True)

    p = add("circuits-census", help="triples, tetrahedra, rectangles and b3")
    p.add_argument("--n", type=int, required=True)

    p = add("embed", help="compile a matrix into a resonance minor")
    p.add_argument("--input", required=True)
    p.add_argument("--verify", action="store_true")

    p = add("verify-embed", help="re-verify a stored embedding certificate")
    p.add_argument("--input", required=True)
    p.add_argument("--cert", required=True)

    p = add("table1", help="recompute golden table cells and compare")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--i-max", type=int, default=4)
    return parser


def _config_from_args(args) -> JobConfig:
    primes = None
    if getattr(args, "primes", None):
        primes = [int(x) for x in args.primes.split(",") if x.strip()]
    method = getattr(args, "method", "auto")
    if args.command == "embed" and getattr(args, "verify", False):
        method = "verify"
    return JobConfig(
        command=args.command,
        n=getattr(args, "n", None) if args.command != "table1" else getattr(args, "n_max", None),
        i=getattr(args, "i", None),
        i_max=getattr(args, "i_max", None),
        method=method,
        primes=primes,
        threads=max(1, args.threads),
        input_path=getattr(args, "input", None),
        output_path=getattr(args, "output", None),
        cert_path=getattr(args, "cert", None),
        fmt=args.format,
        guard_override=args.guard_override,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = _config_from_args(args)
        payload = run(cfg)
    except GuardExceeded as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = _render_text(payload)
    print(text)
    if cfg.output_path and cfg.command != "embed":
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
