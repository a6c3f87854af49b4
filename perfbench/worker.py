"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH=src``.  Imports the package,
builds the seeded op list, then runs the ops one at a time, back to back
(a closed loop with a single client), timing each and taking a
``speed.speed_sample`` before the first op and after every op.  Each
result is checked against its oracle right after its timed call, outside
the timed region, and dropped before the next op, so the peak memory recorded at the end is
that of the program's largest op rather than of results held for checking.
Prints one JSON object on stdout.

    python3 perfbench/worker.py --workload exact --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import speed
from oracles import CheckFailed
from tracer import BUDGET_ERRORS


def judge(op, result, exc):
    """Return (status, message): status is ok, refused or failed."""
    name = type(exc).__name__ if exc is not None else None
    if exc is not None:
        if op.expect_error is not None and name == op.expect_error:
            return "ok", ""
        if op.kind == "probe" and name in BUDGET_ERRORS:
            return "refused", name
        return "failed", f"raised {name}: {str(exc)[:200]}"
    if op.expect_error is not None:
        return "failed", f"returned instead of raising {op.expect_error}"
    try:
        op.check(result)
    except CheckFailed as err:
        return "failed", str(err)[:300]
    except Exception as err:  # a malformed result can break the check itself
        return "failed", f"check raised {type(err).__name__}: {str(err)[:200]}"
    return "ok", ""


def merge_child_traces(tmpdir, layer_names):
    """Sum the span summaries written by traced CLI processes."""
    layers = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in layer_names}
    for path in glob.glob(os.path.join(tmpdir, "trace-*.json")):
        with open(path) as fh:
            for layer, values in json.load(fh).items():
                for key, value in values.items():
                    layers[layer][key] = layers[layer].get(key, 0) + value
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import bfree
    import numpy

    import tracer as tr
    import workloads

    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd()) if args.workload == "cli" else None
    try:
        ops = workloads.build(args.workload, args.seed, bfree, dict(os.environ), tmpdir, bool(args.trace))
        tracer = tr.Tracer() if args.trace and args.workload != "cli" else None
        if tracer:
            tracer.install()
        latencies, records, exit_codes = [], [], []
        t_first = time.perf_counter()
        speeds = [speed.speed_sample()]
        for op in ops:
            t0 = time.perf_counter()
            try:
                result, exc = op.call(), None
            except Exception as err:  # judged below, outside the timed region
                result, exc = None, err
            latencies.append(time.perf_counter() - t0)
            speeds.append(speed.speed_sample())
            status, message = judge(op, result, exc)
            records.append({"name": op.name, "kind": op.kind, "status": status, "message": message})
            if isinstance(result, workloads.CliResult):
                exit_codes.append(result.code)
            del result, exc
        rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        layers = None
        if tracer:
            tracer.uninstall()
            layers = tracer.summary()
        if args.trace:
            if layers is None:
                layers = merge_child_traces(tmpdir, tr.LAYERS)
            layers["cli"] = {"processes": len(exit_codes), "exit_nonzero": sum(code != 0 for code in exit_codes)}
    finally:
        if tmpdir:
            shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps({
        "t_first_op": t_first,
        "latencies_s": latencies,
        "speed_s": speeds,
        "rss_self_kb": rss_self,
        "rss_children_kb": rss_children,
        "ops": records,
        "layers": layers,
        "versions": {"bfree": bfree.__version__, "numpy": numpy.__version__, "python": sys.version.split()[0]},
    }))


if __name__ == "__main__":
    main()
