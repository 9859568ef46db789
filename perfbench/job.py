"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/job.py --workload W --seed S --trace 0|1 --spawned-at T [--toy]
    python3 perfbench/job.py --setup-only --spawned-at T

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process; the set-up time runs from there until
``import resonance`` has completed.  Prints one JSON line.

A fresh interpreter per repetition matters: ``arrangement._count_regions``
is an unbounded module-level cache, so a second call in one process would
time a memo hit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def run_job(workload: str, seed: int, trace: bool, toy: bool = False):
    """Run one workload in this process; return its measurements and the
    tracer that holds its spans (None when not traced)."""
    import numpy
    import spans
    import workloads
    from resonance import arrangement

    check = workloads.Checker()
    work = workloads.WORKLOADS[workload]
    kwargs = {"toy": toy, "seed": seed, "workers": min(2, len(os.sched_getaffinity(0)))}
    tracer = spans.Tracer(f"{workload}-{seed}-{os.getpid()}") if trace else None
    cpu0 = spans.cpu_seconds()
    t0 = time.perf_counter()
    if tracer:
        tracer.install()
        try:
            with tracer.span("workload"):
                work(check, **kwargs)
        finally:
            tracer.uninstall()
    else:
        work(check, **kwargs)
    wall = time.perf_counter() - t0
    cpu = spans.cpu_seconds() - cpu0
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "trace": trace,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024,
        "attempted": check.attempted,
        "failures": check.failures,
        "numpy": numpy.__version__,
        "pool_workers": kwargs["workers"],
    }
    if tracer:
        memo = getattr(arrangement, "_count_regions", None)
        memo_info = memo.cache_info() if hasattr(memo, "cache_info") else None
        ff_primes = arrangement.default_primes(6)
        result["layers"] = spans.layer_metrics(tracer.spans, memo_info, ff_primes)
    return result, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import resonance

    setup_s = time.monotonic() - args.spawned_at
    if Path(resonance.__file__).resolve().parent != (SRC / "resonance").resolve():
        print(f"imported resonance from {resonance.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result, tracer = run_job(args.workload, args.seed, bool(args.trace), args.toy)
    result["setup_s"] = setup_s
    if tracer:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{tracer.run_id}.json"
        tracer.dump(path)
        result["spans_file"] = str(path.relative_to(HERE.parent))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
