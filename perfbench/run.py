"""Benchmark entry point.  Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

A run repeats the workload's seeded op list, each repetition in a fresh
interpreter (``worker.py`` with ``PYTHONPATH=src``), so imports and the
package's caches start cold the same way every time.  Repetitions run one
after another while the next one, as long as their mean so far, still
ends within ``--seconds`` (at least ``MIN_REPS`` and ``MIN_TIMINGS`` op
timings, or one untraced and one traced repetition with ``--trace 1``).

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` repetitions
alternate untraced and traced, and it holds every per-layer metric.  The
lines before it are a human-readable report: provenance, each metric with
its unit and sample count, error and refusal rates, and every failed op
by name.  Exits non-zero without a result if the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

MIN_REPS = 2
MIN_TIMINGS = 100  # so that at least ten op timings lie beyond the p90
WORKER_TIMEOUT_S = 150
IMPORT_SAMPLES = 5

# Fixed for every worker and CLI process: one thread per numeric library,
# fixed string hashing.
CHILD_ENV = {
    "PYTHONPATH": "src",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

RATES = (
    ("measures.sampler.samples_per_s", "measures.sampler", "samples"),
    ("sieve.bits_per_s", "sieve", "bits"),
    ("sturmian.bits_per_s", "sturmian", "bits"),
)


class BenchError(Exception):
    """The program or the benchmark could not run; no result is printed."""


def child_env():
    return {**os.environ, **CHILD_ENV}


def run_worker(workload, seed, trace, env):
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    before = speed.speed_sample()
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["wall_s"] = time.perf_counter() - spawn
    # from process start to the first timed op; both clocks are CLOCK_MONOTONIC
    rep["setup_wall_s"] = rep["t_first_op"] - spawn
    samples = rep["speed_s"]
    rep["setup_s"] = speed.scale(rep["setup_wall_s"], before, samples[0])
    rep["scaled_s"] = [speed.scale(t, a, b) for t, a, b in zip(rep["latencies_s"], samples, samples[1:])]
    rep["traced"] = bool(trace)
    return rep


def cold_import_s(env):
    code = "import time; t = time.perf_counter(); import bfree.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import bfree.cli failed: {proc.stderr.strip()[-2000:]}")
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def git_sha():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(Path.cwd().parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def op_best(reps, key="scaled_s"):
    """Each op's fastest latency over the repetitions, in op-list order."""
    return [min(lat) for lat in zip(*(r[key] for r in reps))]


def end_to_end(reps, workload):
    """Throughput and latency quantiles over the op list, from each op's
    fastest repetition (as ``timeit`` does) at reference speed (``speed``).
    Set-up time and memory are medians over the repetitions."""
    per_op = op_best(reps)
    rss_key = "rss_children_kb" if workload == "cli" else "rss_self_kb"
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "ops_per_s": len(per_op) / sum(per_op),
        "latency_p50_ms": 1000 * statistics.median(per_op),
        "latency_p90_ms": 1000 * statistics.quantiles(per_op, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(r[rss_key] for r in reps) / 1024,
    }
    samples = {name: len(reps) for name in values}
    samples["ops_per_s"] = samples["latency_p50_ms"] = samples["latency_p90_ms"] = len(per_op) * len(reps)
    return values, samples


def per_layer(names, traced, untraced, import_s):
    """Median over traced repetitions of each ``<layer>.<key>`` in ``names``."""
    values = {"cli.import_s": import_s}
    values["trace.overhead_ratio"] = sum(op_best(untraced)) / sum(op_best(traced))
    for name, layer, count in RATES:
        values[name] = statistics.median(
            r["layers"][layer].get(count, 0) / r["layers"][layer]["busy_s"] if r["layers"][layer]["busy_s"] else 0.0
            for r in traced
        )
    for name in names:
        if name not in values:
            layer, key = name.rsplit(".", 1)
            values[name] = statistics.median(r["layers"][layer].get(key, 0) for r in traced)
    return values


def outcome_counts(reps):
    """attempted, failed and refused ops, and failures grouped by op name."""
    attempted = failed = refused = 0
    failures = {}
    defects = {}
    for r in reps:
        for op in r["ops"]:
            attempted += 1
            refused += op["status"] == "refused"
            if op["kind"] == "defect":
                defects.setdefault(op["name"], []).append(op)
            if op["status"] == "failed":
                failed += 1
                failures.setdefault(op["name"], []).append(op)
    return attempted, failed, refused, failures, defects


def report(args, reps, metrics, e2e, e2e_samples, provenance):
    attempted, failed, refused, failures, defects = outcome_counts(reps)
    untraced = [r for r in reps if not r["traced"]]
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({len(untraced)} untraced, {min(r['wall_s'] for r in reps):.1f}-{max(r['wall_s'] for r in reps):.1f} s each), "
          f"{len(reps[0]['ops'])} ops each, closed loop, one client")
    units = {m["name"]: m["unit"] for m in metrics["end_to_end"] + metrics["per_layer"]}
    for name, value in e2e.items():
        what = "untraced repetitions" if name in ("setup_s", "peak_rss_mb") else "op latencies"
        print(f"  {name:<16} {value:14.6g} {units[name]:<6} ({e2e_samples[name]} {what})")
    wall = op_best(untraced, "latencies_s")
    slowdown = statistics.median(x for r in untraced for x in r["speed_s"]) / speed.REF_S
    print(f"  unscaled wall clock: ops_per_s {len(wall) / sum(wall):.6g}, latency_p50_ms {1000 * statistics.median(wall):.6g}, "
          f"setup_s {statistics.median(r['setup_wall_s'] for r in untraced):.6g}; "
          f"reference pass {slowdown:.3g}x its reference time")
    print(f"  {'error_rate':<16} {failed / attempted:14.6g} ratio  ({failed} of {attempted} ops failed)")
    print(f"  {'refusal_rate':<16} {refused / attempted:14.6g} ratio  ({refused} of {attempted} ops were budget refusals)")
    for name, ops in defects.items():
        n_failed = sum(op["status"] == "failed" for op in ops)
        state = "fails" if n_failed else "no longer reproduces"
        print(f"  known defect {state}: {name} ({n_failed} of {len(ops)}) {ops[0]['message']}")
    for name, ops in failures.items():
        if ops[0]["kind"] != "defect":
            print(f"  FAILED {name} ({len(ops)} of {len(reps)}): {ops[0]['message']}")
    correct = all(ops[0]["kind"] == "defect" for ops in failures.values())
    return attempted, failed, correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/bfree/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        raise BenchError("run from the repository root: src/bfree and BENCHMARK.json are required")
    metrics = json.loads(Path("BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in metrics["workloads"]}:
        raise BenchError(f"unknown workload {args.workload}")
    env = child_env()
    # compile the package's bytecode once so every repetition imports it the same way
    subprocess.run([sys.executable, "-c", "import bfree.cli"], env=env, timeout=60, check=True)

    reps = []
    start = time.perf_counter()
    while True:
        trace = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_worker(args.workload, args.seed, trace, env))
        untraced = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        enough = len(traced) >= 1 and len(untraced) >= 1 if args.trace else (
            len(untraced) >= MIN_REPS and sum(len(r["ops"]) for r in untraced) >= MIN_TIMINGS)
        # stop before a repetition of the mean length so far would overrun
        mean = statistics.fmean(r["wall_s"] for r in reps)
        if enough and time.perf_counter() - start + mean > args.seconds:
            break

    e2e, e2e_samples = end_to_end(untraced, args.workload)
    if args.trace:
        wanted = metrics["per_layer"]
        values = per_layer([m["name"] for m in wanted], traced, untraced, cold_import_s(env))
    else:
        values, wanted = e2e, metrics["end_to_end"]
    provenance = {
        "seed": args.seed,
        "git_sha": git_sha(),
        "python": reps[0]["versions"]["python"],
        "numpy": reps[0]["versions"]["numpy"],
        "bfree": reps[0]["versions"]["bfree"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env": CHILD_ENV,
        "seconds": args.seconds,
        "reference_s": speed.REF_S,
    }
    attempted, failed, correct = report(args, reps, metrics, e2e, e2e_samples, provenance)
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
