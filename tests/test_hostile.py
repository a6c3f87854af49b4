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
