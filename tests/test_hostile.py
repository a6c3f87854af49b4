"""Hostile inputs, each run in a child process under a memory limit and a timeout.

A case passes when the child ends in a domain error (a ``BFreeError``, or
exit 1 with its name from the CLI) within seconds.  The address-space
limit applies to the child only, so a case that tries to allocate
gigabytes fails there with ``MemoryError`` instead of exhausting the host.
"""

import json
import os
import resource
import sys
import subprocess
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE = 2 << 30  # above numpy's import footprint
TIMEOUT_S = 20


def run_limited(argv):
    """Run ``python argv...`` with the address-space limit and the timeout."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, *argv], env=env, preexec_fn=limit, capture_output=True, text=True, timeout=TIMEOUT_S
    )


def raised(result) -> str:
    """Name of the exception a child died of, from its traceback's last line."""
    last = result.stderr.strip().splitlines()[-1]
    return last.split(":")[0].rsplit(".", 1)[-1]


@pytest.mark.parametrize(
    "call",
    [
        "admissibility.block_complexity(core.validate_bset([2, 3]), 10**9)",
        "next(admissibility.admissible_words(core.validate_bset([2, 3]), 10**8))",
        "core.squarefree_family(10**7)",
        # 8151 walked lengths of 1023 kept positions, tens of seconds of walk
        "admissibility.block_complexity(core.validate_bset([11, 13]), 14000)",
        # 11 840 recurrence lengths of 30 multiply-adds with alphas of up to 617 bits
        "admissibility.block_complexity(core.validate_bset([8, 9]), 14000)",
        # 9999 zero phases times 10^5 target bits: about 10^9 set-up steps
        "sturmian.mme_block_frequency(sturmian.PeriodicHereditarySystem(core.BinaryWord.from_string("
        "'0' * 9999 + '1')), core.BinaryWord.from_string('0' * 10**5), 1)",
        # one zero phase times 2^25 target bits: a per-position cylinder of
        # 2^25 entries would not fit the limit
        "sturmian.mme_block_frequency(sturmian.PeriodicHereditarySystem(core.BinaryWord.from_string('10')), "
        "core.BinaryWord.from_string('0' * 2**25), 1)",
    ],
)
def test_library_call_refused(call):
    result = run_limited(["-c", f"from bfree import admissibility, core, sturmian\n{call}"])
    assert result.returncode == 1 and raised(result) == "BudgetExceeded", result.stderr[-2000:]


@pytest.mark.parametrize(
    "argv",
    [
        ["complexity", "--bset", "2,3", "--n", "3000000"],
        ["complexity", "--bset", "3", "--n", "25000"],  # past the 4300-digit int -> str limit
        ["complexity", "--bset", "11,13", "--n", "14000"],  # over the walk budget
    ],
)
def test_cli_call_refused(argv):
    result = run_limited(["-m", "bfree.cli", *argv])
    assert result.returncode == 1 and result.stdout == "", result.stderr[-2000:]
    assert json.loads(result.stderr)["error"] == "BudgetExceeded"


def test_limit_acts_on_the_child():
    # the same limit turns an 8 GB table into a MemoryError, not a host-wide shortage
    result = run_limited(["-c", "[0] * 10**9"])
    assert result.returncode == 1 and raised(result) == "MemoryError", result.stderr[-2000:]
    assert resource.getrlimit(resource.RLIMIT_AS)[0] != ADDRESS_SPACE


# Offsets at and past the int64 range, and a word that straddles 2^63.
FAR_OFFSETS = [2**63, -(2**63), 10**20, -(10**20), 2**63 - 5]
FAR_MODULI, FAR_OMEGA, FAR_WORDS, FAR_LENGTH = (4, 9), (1, 5), ("1100000001", "1111"), 12

FAR_CHILD = """
import json, sys
from bfree import admissibility as A, core, sieve
from bfree.errors import BFreeError
offset = int(sys.argv[1])
bset = core.validate_bset({moduli})
calls = {{"eta_window": lambda: sieve.eta_window(bset, offset, offset + {length}).to_json(),
          "phi_window": lambda: sieve.phi_window(core.OdometerPoint(bset, {omega}), offset, offset + {length}).to_json()}}
for text in {words}:
    word = core.BinaryWord.from_string(text, offset)
    calls[f"theta_window {{text}}"] = lambda w=word: [None if c is None else sorted(c) for c in A.theta_window(w, bset)]
    calls[f"spectrum_profile {{text}}"] = lambda w=word: A.spectrum_profile(w, bset).to_json()
    calls[f"is_admissible {{text}}"] = lambda w=word: A.is_admissible(w, bset)
out = {{}}
for name, call in calls.items():
    try:
        out[name] = call()
    except BFreeError as err:
        out[name] = {{"error": type(err).__name__}}
print(json.dumps(out))
""".format(moduli=FAR_MODULI, omega=FAR_OMEGA, words=FAR_WORDS, length=FAR_LENGTH)


def far_expected(offset):
    """The five calls of FAR_CHILD at ``offset``, by residues of Python ints."""

    def window(bit):
        bits = "".join("1" if bit(n) else "0" for n in range(offset, offset + FAR_LENGTH))
        return json.dumps({"offset": offset, "bits": bits})

    out = {
        "eta_window": window(lambda n: all(n % b for b in FAR_MODULI)),
        "phi_window": window(lambda n: all((r + n) % b for r, b in zip(FAR_OMEGA, FAR_MODULI))),
    }
    for text in FAR_WORDS:
        hits = [{(offset + i) % b for i, c in enumerate(text) if c == "1"} for b in FAR_MODULI]
        missing = [sorted(set(range(b)) - h) for h, b in zip(hits, FAR_MODULI)]
        out[f"theta_window {text}"] = [sorted((-a) % b for a in m) or None for m, b in zip(missing, FAR_MODULI)]
        out[f"is_admissible {text}"] = all(missing)
        out[f"spectrum_profile {text}"] = json.dumps([
            {"b": b, "s": len(m), "missing": m,
             "b_prime": min(j for j in range(1, b + 1) if b % j == 0 and {(r + j) % b for r in h} == h)}
            for h, m, b in zip(hits, missing, FAR_MODULI)
        ]) if all(missing) else {"error": "Inadmissible"}
    return out


@pytest.mark.parametrize("offset", FAR_OFFSETS)
def test_far_offsets_are_exact(offset):
    result = run_limited(["-c", FAR_CHILD, str(offset)])
    assert result.returncode == 0, result.stderr[-2000:]
    got = json.loads(result.stdout)
    for name, value in far_expected(offset).items():
        # an exact value, or a domain error
        assert got[name] == value or isinstance(got[name], dict) and "error" in got[name], (name, got[name], value)
