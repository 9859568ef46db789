"""Spans around calls into ``resonance``, recorded from outside the package.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper in
every ``resonance`` module namespace that binds it: a name brought in
with ``from .linalg import bareiss_rank`` is a second binding that
wrapping ``linalg`` alone would miss.  A method is replaced on its
class.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# (module, attribute, record) per traced name.  ``record(arguments, result)``
# returns the counts a span keeps beside its times.
TRACED = (
    ("arrangement", "count_points_avoiding", lambda a, r: {"q": a["q"], "points": r}),
    ("arrangement", "finite_field_charpoly", None),
    ("arrangement", "enumerate_chambers_bruteforce", None),
    ("arrangement", "whitney_charpoly", None),
    ("nbc", "charpoly_via_nbc", lambda a, r: {"sets": sum(r.betti)}),
    ("nbc", "betti_via_nbc", lambda a, r: {"sets": sum(r), "workers": a["workers"]}),
    ("prototypes", "coefficients", None),
    ("circuits", "b3_via_circuits", None),
    ("stirling", "betti2_closed", None),
    ("stirling", "betti3_closed", None),
    ("universality", "parse_matrix_text", None),
    ("universality", "embed", lambda a, r: {"ambient_dim": r.ambient_dim}),
    ("universality", "verify_embedding", lambda a, r: {"pivots": len(r[1].get("pivots", ()))}),
    ("universality", "minor_matroid_check", None),
    ("linalg", "ExactMatrix.pivot", None),
    ("linalg", "bareiss_rank", None),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        cpu0 = cpu_seconds()
        sp = Span(len(self.spans), name, parent, self.run_id, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.attrs["cpu_s"] = cpu_seconds() - cpu0
            self._open.pop()

    def _wrap(self, name, fn, record):
        signature = inspect.signature(fn) if record else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if record:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    sp.attrs.update(record(bound.arguments, result))
                return result

        return traced

    def install(self):
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "resonance" or key.startswith("resonance.")
        ]
        for module, attr, record in TRACED:
            name = f"{module}.{attr}"
            owner = sys.modules[f"resonance.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._replace(cls, method, self._wrap(name, original, record))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, record)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._replace(ns, key, wrapper)

    def _replace(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    Traced calls run on one thread, so children never overlap and the
    sum of their durations is the part of the parent they cover.
    """
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans, memo, ff_primes) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``memo`` is ``_count_regions.cache_info()`` or None; ``ff_primes``
    are the primes that get a per-prime metric even when not counted.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    names = {s.id: s.name for s in spans}
    own = self_times(spans)

    def secs(group):
        return sum(s.duration for s in group)

    def total(attr, group):
        return sum(s.attrs[attr] for s in group)

    m = {}
    for layer in (
        "arrangement.enumerate_chambers_bruteforce",
        "arrangement.whitney_charpoly",
        "prototypes.coefficients",
        "circuits.b3_via_circuits",
        "universality.parse_matrix_text",
        "universality.embed",
        "universality.verify_embedding",
        "universality.minor_matroid_check",
    ):
        m[f"{layer}.s"] = secs(by_name[layer])
    for layer in ("arrangement.count_points_avoiding", "linalg.ExactMatrix.pivot", "linalg.bareiss_rank"):
        m[f"{layer}.s"] = secs(by_name[layer])
        m[f"{layer}.calls"] = len(by_name[layer])

    counts = by_name["arrangement.count_points_avoiding"]
    for q in sorted(set(ff_primes) | {s.attrs["q"] for s in counts}):
        at_q = [s for s in counts if s.attrs["q"] == q]
        m[f"arrangement.count_points_avoiding.q{q}.s"] = secs(at_q)
        m[f"arrangement.count_points_avoiding.q{q}.points"] = total("points", at_q)
    m["arrangement.finite_field_charpoly.self_s"] = sum(
        own[s.id] for s in by_name["arrangement.finite_field_charpoly"]
    )

    hits, misses, entries = (memo.hits, memo.misses, memo.currsize) if memo else (0, 0, 0)
    m["arrangement.regions_memo.entries"] = entries
    m["arrangement.regions_memo.hits"] = hits
    m["arrangement.regions_memo.misses"] = misses
    m["arrangement.regions_memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    # charpoly_via_nbc runs its search through betti_via_nbc; only the
    # workload's own betti_via_nbc calls count for that layer.
    for layer in ("nbc.charpoly_via_nbc", "nbc.betti_via_nbc"):
        group = [
            s for s in by_name[layer]
            if s.parent is None or names[s.parent] != "nbc.charpoly_via_nbc"
        ]
        seconds, sets = secs(group), total("sets", group)
        m[f"{layer}.s"] = seconds
        m[f"{layer}.sets"] = sets
        m[f"{layer}.sets_per_s"] = sets / seconds if seconds else 0.0
        if layer == "nbc.betti_via_nbc":
            capacity = sum(s.attrs["workers"] * s.duration for s in group)
            m[f"{layer}.worker_cpu_s"] = total("cpu_s", group)
            m[f"{layer}.utilization"] = total("cpu_s", group) / capacity if capacity else 0.0

    m["stirling.closed_forms.s"] = secs(by_name["stirling.betti2_closed"]) + secs(
        by_name["stirling.betti3_closed"]
    )
    m["universality.ambient_dim.sum"] = total("ambient_dim", by_name["universality.embed"])
    m["universality.pivots"] = total("pivots", by_name["universality.verify_embedding"])
    return m
