"""Tests of the benchmark itself.  From the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bfree  # noqa: E402
import oracles as O  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from worker import judge  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_worker(workload, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "7", "--trace", str(trace)],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_only_known_defects_fail(workload):
    rep = run_worker(workload)
    assert len(rep["ops"]) == len(rep["latencies_s"]) >= 20
    failed = [op for op in rep["ops"] if op["status"] == "failed"]
    assert all(op["kind"] == "defect" for op in failed), failed
    # the known-defect ops stay in the data whether or not the program still fails them
    defects = [op["name"] for op in rep["ops"] if op["kind"] == "defect"]
    assert len(defects) == {"stream": 1, "cli": 1}.get(workload, 0)


def test_printed_metric_names_match_benchmark_json(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "MIN_TIMINGS", 1)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        run.main(["--workload", "sample", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in BENCH[key]]
        for m in BENCH[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_benchmark_json_shape_and_documented_mapping():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in BENCH["end_to_end"])
    readme = (HERE / "README.md").read_text()
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert f"`{m['name']}`" in readme, m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- injected wrong answers are counted as errors -----------------------------


def find_op(ops, prefix):
    return next(op for op in ops if op.name.startswith(prefix))


def ops_for(workload, **kw):
    return workloads.build(workload, 7, bfree, **kw)


@pytest.mark.parametrize("n_corrupt", [5, 36])
def test_corrupted_block_count_is_an_error(n_corrupt):
    op = find_op(ops_for("exact"), "block_complexity[4, 9] n=36")
    counts = op.call()
    assert judge(op, counts, None)[0] == "ok"
    counts[n_corrupt - 1] += 1  # n=5 is checked by brute force, n=36 = P by the closed form
    assert judge(op, counts, None)[0] == "failed"


def test_flipped_sampled_bit_is_an_error():
    ops = ops_for("sample")
    op = find_op(ops, "sample_mirsky[2, 3] p=1 L=12 x4000")
    batch = op.call()
    assert judge(op, batch, None)[0] == "ok"
    word = batch.words[17]
    bits = word.bits.copy()
    bits[np.flatnonzero(bits == 0)[0]] = 1  # every coding of [2, 3] has 4 ones in 12 bits
    bad = dataclasses.replace(batch, words=batch.words[:17] + (bfree.BinaryWord(bits, word.offset),) + batch.words[18:])
    assert judge(op, bad, None)[0] == "failed"


def test_wrong_exit_code_is_an_error(tmp_path):
    ops = ops_for("cli", env=run.child_env(), tmpdir=str(tmp_path))
    ok_op = find_op(ops, "entropy generalized")
    good = workloads.CliResult(0, json.dumps({"schema": 1, "exact": "1/3"}), "", None)
    assert judge(ok_op, good, None)[0] == "ok"
    assert judge(ok_op, workloads.CliResult(1, good.stdout, "", None), None)[0] == "failed"
    usage = find_op(ops, "usage unknown subcommand")
    assert judge(usage, workloads.CliResult(1, "", "", None), None)[0] == "failed"


def test_failures_reach_the_result_line():
    rep = {"ops": [
        {"name": "a", "kind": "op", "status": "failed", "message": "wrong"},
        {"name": "b", "kind": "probe", "status": "refused", "message": ""},
        {"name": "c", "kind": "defect", "status": "failed", "message": "known"},
    ]}
    attempted, failed, refused, failures, defects = run.outcome_counts([rep, rep])
    assert (attempted, failed, refused) == (6, 4, 2)
    assert set(failures) == {"a", "c"} and set(defects) == {"c"}


def test_probe_refusal_and_exact_value_are_both_accepted():
    op = find_op(ops_for("exact"), "probe block_complexity")
    err = bfree.errors.StateSpaceTooLarge("over budget")
    assert judge(op, None, err) == ("refused", "StateSpaceTooLarge")
    counts = [0] * 899 + [O.closed_form_count((4, 9, 25), 900)]
    assert judge(op, counts, None)[0] == "ok"
    counts[-1] += 1
    assert judge(op, counts, None)[0] == "failed"


# -- timing -------------------------------------------------------------------


def test_timings_are_scaled_to_reference_speed():
    assert speed.scale(0.5, speed.REF_S, speed.REF_S) == 0.5
    # the machine ran at half speed around the op: half its wall time counts
    assert speed.scale(0.5, 2 * speed.REF_S, 2 * speed.REF_S) == 0.25
    # a stalled sample on one side does not shrink the op's time
    assert speed.scale(0.5, speed.REF_S, 50 * speed.REF_S) == 0.5
    rep = {"latencies_s": [0.1, 0.4], "speed_s": [speed.REF_S, 2 * speed.REF_S, 2 * speed.REF_S],
           "t_first_op": 0.0, "setup_s": 0.2, "rss_self_kb": 1024}
    rep["scaled_s"] = [speed.scale(t, a, b) for t, a, b in zip(rep["latencies_s"], rep["speed_s"], rep["speed_s"][1:])]
    values, _ = run.end_to_end([rep], "exact")
    assert values["ops_per_s"] == pytest.approx(2 / (0.1 + 0.2))
    assert speed.speed_sample() > 0


# -- oracles and tracer --------------------------------------------------------


def test_closed_form_matches_brute_force():
    for mods, n in (((2, 3), 6), ((2, 3), 12), ((2, 5), 10)):
        assert O.closed_form_count(mods, n) == O.brute_counts(mods, n)[-1]


def test_haar_cylinder_matches_product_formula():
    mods = (4, 9)
    ones = [0, 5, 7]
    expected = Fraction(1)
    for b in mods:
        expected *= Fraction(b - len({o % b for o in ones}), b)
    assert O.haar_cylinder(mods, {o: 1 for o in ones}) == expected


def test_tracer_nests_spans_and_restores_functions():
    original = bfree.measures.phi_window
    spans = tr.Tracer()
    spans.install()
    try:
        assert bfree.measures.phi_window is not original
        bfree.sample_mirsky(bfree.validate_bset((2, 3)), 0, 12, 50, 1)
        words = list(bfree.admissible_words(bfree.validate_bset((2, 3)), 6))
    finally:
        spans.uninstall()
    assert bfree.measures.phi_window is original
    summary = spans.summary()
    sampler, sieve = summary["measures.sampler"], summary["sieve"]
    assert sampler["calls"] == 1 and sampler["samples"] == 50
    assert sieve["calls"] == 50 and sieve["bits"] == 600
    assert 0 < sampler["self_s"] < sampler["busy_s"]
    assert summary["admissibility"]["words_enumerated"] == len(words)
