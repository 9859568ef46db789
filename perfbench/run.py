"""Benchmark of the resonance package: one workload, one seed, one run.

    python3 perfbench/run.py --workload {ff6,regions6,betti7,embed} \
        --seed N --seconds S --trace 0|1

Repeats the workload for about ``--seconds`` seconds, each repetition in
a fresh interpreter, and always at least once (with ``--trace 1``, at
least one untraced and one traced repetition).  Every result is checked.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics BENCHMARK.json names: the
end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``.  The full report, with the environment block and every
repetition, goes to ``perfbench/out/``.

Times are means over the run's repetitions.  On a shared host, other
tenants slow the CPU by 1.5-1.7x for seconds to minutes at a time; the
mean weighs each such period by how long it lasted, as a single long
repetition does, and varied least from run to run.  Set-up time and peak
RSS are medians over their samples.

Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run at all (no source tree beside it, or a
repetition that crashed or timed out); no result line is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
OUT = HERE / "out"
SETUP_LAUNCHES = 9
RUN_LIMIT_S = 170


class JobError(RuntimeError):
    pass


def launch(extra, deadline):
    """Run job.py with ``extra`` arguments and return its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    cmd = [sys.executable, str(JOB), *extra, "--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise JobError(f"job {' '.join(extra)} passed the run's time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise JobError(f"job {' '.join(extra)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(args):
    """Repetitions of the workload between two groups of set-up-only
    launches.  On a shared host the CPU can run 1.5-1.7x slower for seconds
    at a time; set-up samples from both ends of the run keep one such
    phase from setting the median."""
    deadline = time.monotonic() + RUN_LIMIT_S
    job = ["--workload", args.workload, "--seed", str(args.seed)] + (["--toy"] if args.toy else [])
    modes = ("0", "1") if args.trace else ("0",)
    setups = [launch(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_LAUNCHES // 2)]
    start = time.monotonic()
    reps = []
    while True:
        for mode in modes:
            reps.append(launch(job + ["--trace", mode], deadline))
        rounds = len(reps) // len(modes)
        elapsed = time.monotonic() - start
        if any(r["failures"] for r in reps) or elapsed * (rounds + 1) / rounds > args.seconds:
            break
    setups += [launch(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_LAUNCHES - len(setups))]
    return reps, setups


def summarize(reps, setups):
    """The run's metric values, the number of checked operations, and
    every failure."""
    plain = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    values = {
        "wall_s": statistics.fmean(r["wall_s"] for r in plain),
        "cpu_s": statistics.fmean(r["cpu_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
    }
    if traced:
        for name in traced[0]["layers"]:
            values[name] = statistics.fmean(r["layers"][name] for r in traced)
        values["trace.overhead_s"] = statistics.fmean(r["wall_s"] for r in traced) - values["wall_s"]
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    return values, attempted, failures


def git_sha():
    """HEAD's commit, read from .git without running git; None outside a
    git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args, reps):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "git_sha": git_sha(),
        "workers": {
            "betti_via_nbc": reps[0]["pool_workers"],
            "charpoly_via_nbc": 1,
            "count_points_avoiding_threads": 1,
        },
        "repetitions": len(reps),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="n <= 4 and one 2x2 matrix, for the tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "resonance" / "__init__.py").is_file():
        print(f"no resonance source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        reps, setups = measure(args)
    except JobError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    values, attempted, failures = summarize(reps, setups)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment(args, reps)
    report = {
        "environment": env,
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "values": values,
        "setup_launches": setups,
        "repetitions": reps,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    print("environment " + json.dumps(env))
    print(f"fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
