"""Hostile inputs, each run in a child process under a memory limit and a timeout.

A case passes when the child ends in a domain error (a ``BFreeError``, or
exit 1 with its name from the CLI) within seconds.  The address-space
limit applies to the child only, so a case that tries to allocate
gigabytes fails there with ``MemoryError`` instead of exhausting the host.
"""

import itertools
import json
import math
import operator
import os
import random
import resource
import sys
import subprocess
from fractions import Fraction
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


# The residue-system entry points on B = [2, 10^10 + 19], whose large modulus
# meets no window of the sizes below more than once, on empty and
# over-budget windows, and on the empty target and zero set of a periodic
# point.  Each call answers exactly or raises a BFreeError or ValueError.
BIG = 10**10 + 19
SWEEP_WINDOWS = [(0, 64), (BIG - 40, BIG + 40), (-BIG - 3, -BIG + 60), (7, 7), (9, 2), (0, 2**31)]
SWEEP_OMEGA, SWEEP_CLASSES = (1, BIG - 2), ((1,), (0, 5))
SWEEP_SPECS = [{}, {0: 1, 1: 0}, {0: 1, 2 * BIG: 1, 3: 0, BIG + 1: 0}, {1: 1, 3: 1, BIG: 0, 5: 0, -BIG: 0}]
SWEEP_PRIMES = [2, BIG]
SWEEP_VARIANT_WINDOWS = [(0, 64), (6 * BIG - 20, 6 * BIG + 40), (7, 7), (0, 2**31)]
# (block, target unit, repeats): the target is unit * repeats
SWEEP_TARGETS = [("110", "", 1), ("110", "1", 2**25), ("1", "1", 2**25), ("110", "110010", 1), ("1", "1101", 1)]

SWEEP_CHILD = """
import json
from fractions import Fraction
from bfree import core, measures, sieve, sturmian
from bfree.errors import BFreeError
bset = core.validate_bset([2, {big}])
profile = sieve.SAProfile(bset, (1, 2), tuple(map(frozenset, {classes})))
calls = {{}}
for lo, hi in {windows}:
    calls[f"eta_window {{lo}} {{hi}}"] = lambda lo=lo, hi=hi: sieve.eta_window(bset, lo, hi).to_string()
    calls[f"phi_sa_window {{lo}} {{hi}}"] = lambda lo=lo, hi=hi: sieve.phi_sa_window(profile, {omega}, lo, hi).to_string()

    def sample(lo=lo, hi=hi):
        whole = measures.sample_generalized(profile, 1, lo, hi, 6, 3)
        masked = measures.sample_generalized(profile, Fraction(1, 3), lo, hi, 6, 3)
        return whole.omegas.tolist(), [w.to_string() for w in whole.words], bool((masked.bits <= whole.bits).all())

    calls[f"sample_generalized {{lo}} {{hi}}"] = sample
for i, entries in enumerate({specs}):
    calls[f"mixed_cylinder {{i}}"] = lambda e=entries: str(measures.mixed_cylinder(bset, core.CylinderSpec(e)))
for lo, hi in {variant_windows}:
    system = sturmian.PeriodicHereditarySystem(core.BinaryWord.from_string("110"))
    calls[f"minimal_subset_variant {{lo}} {{hi}}"] = (
        lambda lo=lo, hi=hi: sturmian.minimal_subset_variant(system, {primes}, lo, hi).to_string())
for block, unit, repeats in {targets}:
    calls[f"mme_block_frequency {{block}} {{unit}} {{repeats}}"] = lambda b=block, t=unit * repeats: str(
        sturmian.mme_block_frequency(sturmian.PeriodicHereditarySystem(core.BinaryWord.from_string(b)),
                                     core.BinaryWord.from_string(t), Fraction(1, 2)))
out = {{}}
for name, call in calls.items():
    try:
        out[name] = call()
    except (BFreeError, ValueError) as err:
        out[name] = {{"error": type(err).__name__}}
print(json.dumps(out))
""".format(big=BIG, classes=SWEEP_CLASSES, windows=SWEEP_WINDOWS, omega=SWEEP_OMEGA, specs=SWEEP_SPECS,
           variant_windows=SWEEP_VARIANT_WINDOWS, primes=SWEEP_PRIMES, targets=SWEEP_TARGETS)


def sweep_bits(bit, lo, hi):
    return "".join("1" if bit(n) else "0" for n in range(lo, hi))


def sweep_coding(omega, lo, hi):
    # the profile's coding at omega, by residues of Python ints
    return sweep_bits(
        lambda n: all((r + n) % b not in a for r, b, a in zip(omega, (2, BIG), SWEEP_CLASSES)), lo, hi
    )


def sweep_cylinder(entries):
    # inclusion-exclusion over the zeros of nu(all of A are 1) = prod_b (1 - |A mod b| / b)
    ones = [n for n, v in entries.items() if v]
    zeros = [n for n, v in entries.items() if not v]
    total = Fraction(0)
    for r in range(len(zeros) + 1):
        for extra in itertools.combinations(zeros, r):
            cell = ones + list(extra)
            total += (-1) ** r * math.prod(Fraction(b - len({n % b for n in cell}), b) for b in (2, BIG))
    return total


def sweep_variant(lo, hi):
    # block n of the period-3 point 110 is zeroed when n == k - 1 (mod P_k) and n != k - 1
    products = list(itertools.accumulate(SWEEP_PRIMES, operator.mul))
    zeroed = lambda n: any(n % P == (k - 1) % P and n != k - 1 for k, P in enumerate(products, start=1))
    return sweep_bits(lambda n: n % 3 != 2 and not zeroed(n // 3), lo, hi)


def sweep_frequency(block, target):
    # uniform phase j, then each 1 of the periodic window kept w.p. 1/2
    c, total = len(block), Fraction(0)
    for j in range(c):
        window = [block[(j + i) % c] == "1" for i in range(len(target))]
        if all(w or t == "0" for w, t in zip(window, target)):
            total += Fraction(1, 2) ** sum(window)
    return total / c


def test_residue_system_sweep():
    result = run_limited(["-c", SWEEP_CHILD])
    assert result.returncode == 0, result.stderr[-2000:]
    got = json.loads(result.stdout)
    expected = {}
    for lo, hi in SWEEP_WINDOWS:
        if hi <= lo:
            error = "ValueError"
        elif hi - lo > 2**30 or 6 * (hi - lo) > 2**30:
            error = "WindowTooLarge"
        else:
            error = None
        for name in ("eta_window", "phi_sa_window", "sample_generalized"):
            expected[f"{name} {lo} {hi}"] = {"error": error} if error else None
        if not error:
            expected[f"eta_window {lo} {hi}"] = sweep_bits(lambda n: n % 2 and n % BIG, lo, hi)
            expected[f"phi_sa_window {lo} {hi}"] = sweep_coding(SWEEP_OMEGA, lo, hi)
            omegas, rows, dominated = got[f"sample_generalized {lo} {hi}"]
            assert dominated and all(0 <= r < b for o in omegas for r, b in zip(o, (2, BIG)))
            expected[f"sample_generalized {lo} {hi}"] = [omegas, [sweep_coding(o, lo, hi) for o in omegas], True]
    for i, entries in enumerate(SWEEP_SPECS):
        expected[f"mixed_cylinder {i}"] = str(sweep_cylinder(entries))
    for lo, hi in SWEEP_VARIANT_WINDOWS:
        error = "ValueError" if hi <= lo else "WindowTooLarge" if hi - lo > 2**30 else None
        expected[f"minimal_subset_variant {lo} {hi}"] = {"error": error} if error else sweep_variant(lo, hi)
    for block, unit, repeats in SWEEP_TARGETS:
        target = unit * repeats
        error = "ValueError" if not target else "BudgetExceeded" if len(target) > 2**24 else None
        name = f"mme_block_frequency {block} {unit} {repeats}"
        expected[name] = {"error": error} if error else str(sweep_frequency(block, target))
    assert got == expected


# A 0-bit word, in each of its three forms (from a string, from a byte
# array, from packed bytes) and at offsets 0 and -10^20, through every
# entry point that takes a word.  Each answers exactly or raises a
# BFreeError or ValueError.
EMPTY_MODULI, EMPTY_OFFSETS = (4, 9), (0, -(10**20))

EMPTY_CHILD = """
import json
import numpy as np
from bfree import admissibility as A, core, entropy, measures, sieve, sturmian
from bfree.errors import BFreeError
bset = core.validate_bset({moduli})
profile = sieve.SAProfile.plain(bset)
out = {{}}
for offset in {offsets}:
    forms = {{"string": core.BinaryWord.from_string("", offset),
              "array": core.BinaryWord(np.zeros(0, dtype=np.uint8), offset),
              "packed": core.BinaryWord.unpack(b"", 0, offset)}}
    for form, w in forms.items():
        calls = {{
            "is_admissible": lambda: A.is_admissible(w, bset),
            "theta_window": lambda: [None if c is None else sorted(c) for c in A.theta_window(w, bset)],
            "spectrum_profile": lambda: json.loads(A.spectrum_profile(w, bset).to_json()),
            "residue_hits": lambda: [sorted(h) for h in A.residue_hits(w, bset)],
            "density": lambda: str(w.density()),
            "squeeze": lambda: json.loads(measures.squeeze(w, w).to_json()),
            "embed": lambda: json.loads(measures.embed(w, w).to_json()),
            "dominated_by": lambda: w.dominated_by(w),
            "crt_density_bound": lambda: [str(x) for x in entropy.crt_density_bound(profile, w)],
            "PeriodicHereditarySystem": lambda: sturmian.PeriodicHereditarySystem(w).block.to_string(),
        }}
        for name, call in calls.items():
            try:
                out[f"{{name}} {{form}} {{offset}}"] = call()
            except (BFreeError, ValueError) as err:
                out[f"{{name}} {{form}} {{offset}}"] = {{"error": type(err).__name__}}
print(json.dumps(out))
""".format(moduli=EMPTY_MODULI, offsets=EMPTY_OFFSETS)


def test_empty_words():
    result = run_limited(["-c", EMPTY_CHILD])
    assert result.returncode == 0, result.stderr[-2000:]
    got = json.loads(result.stdout)
    expected = {}
    for offset, form in itertools.product(EMPTY_OFFSETS, ("string", "array", "packed")):
        # an empty support hits no residue, so every class is missed: the
        # word is admissible and every coordinate is a candidate
        answers = {
            "is_admissible": True,
            "theta_window": [list(range(b)) for b in EMPTY_MODULI],
            "spectrum_profile": [{"b": b, "s": b, "missing": list(range(b)), "b_prime": 1} for b in EMPTY_MODULI],
            "residue_hits": [[] for _ in EMPTY_MODULI],
            "density": {"error": "EmptyWord"},
            "squeeze": {"error": "EmptySupport"},
            "embed": {"offset": offset, "bits": ""},
            "dominated_by": True,
            "crt_density_bound": {"error": "WrongWindowLength"},
            "PeriodicHereditarySystem": {"error": "NotMinimalPeriod"},
        }
        expected.update({f"{name} {form} {offset}": answer for name, answer in answers.items()})
    assert got == expected


# A window at the bit budget answers, one bit per position, and one bit
# more is refused before any work.
BUDGET_CHILD = """
import json, resource, time
import numpy as np
from bfree import core, sieve
from bfree.errors import WindowTooLarge
sf8 = core.squarefree_family(8)
limit = sieve.MAX_WINDOW_BITS
word = sieve.eta_window(sf8, 0, limit)
packed = np.frombuffer(word.pack(), dtype=np.uint8)
rng = np.random.default_rng(27)
idx = np.concatenate([np.arange(4096), np.arange(limit - 4096, limit), rng.integers(0, limit, 10**5)])
bits = (packed[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1
t = time.perf_counter()
try:
    sieve.eta_window(sf8, 0, limit + 1)
    refused = None
except WindowTooLarge:
    refused = time.perf_counter() - t
print(json.dumps({"length": len(word), "bytes": int(packed.size), "idx": idx.tolist(), "bits": bits.tolist(),
                  "refused_s": refused, "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def test_window_at_the_bit_budget():
    result = run_limited(["-c", BUDGET_CHILD])
    assert result.returncode == 0, result.stderr[-2000:]
    got = json.loads(result.stdout)
    limit = 2**30
    assert got["length"] == limit and got["bytes"] == limit // 8
    moduli = [p * p for p in (2, 3, 5, 7, 11, 13, 17, 19)]
    assert got["bits"] == [int(all(n % b for b in moduli)) for n in got["idx"]]
    assert got["refused_s"] is not None and got["refused_s"] < 1
    # the packed window and its pack() copy are 128 MiB each; one byte per
    # position would have needed 1 GiB
    assert got["max_rss_mb"] < 400, got["max_rss_mb"]


# A periodic system of prime period 65537, above the wheel cap of 2^16, with
# about 33 000 zero phases, over a window of more than one packed segment
# that straddles -2^63: the packed kernel clears those classes directly, in
# a number of numpy calls per segment that does not grow with the classes.
PERIODIC = (65537, -(2**63) - 12345, 2**23 + 2**21 + 3)
PERIODIC_CHILD = """
import json, random, time
import numpy as np
from bfree import core, sturmian
c, lo, length = {periodic}
block = "".join(random.Random(28).choices("01", k=c))
system = sturmian.PeriodicHereditarySystem(core.BinaryWord.from_string(block))
t = time.perf_counter()
word = system.window(lo, lo + length)
elapsed = time.perf_counter() - t
packed = np.frombuffer(word.pack(), dtype=np.uint8)
rng = np.random.default_rng(28)
idx = np.concatenate([np.arange(4096), np.arange(length - 4096, length), rng.integers(0, length, 10**5)])
bits = (packed[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1
print(json.dumps({{"length": len(word), "elapsed_s": elapsed, "idx": idx.tolist(), "bits": bits.tolist()}}))
""".format(periodic=PERIODIC)


def test_periodic_window_past_the_wheel():
    result = run_limited(["-c", PERIODIC_CHILD])
    assert result.returncode == 0, result.stderr[-2000:]
    got = json.loads(result.stdout)
    c, lo, length = PERIODIC
    block = "".join(random.Random(28).choices("01", k=c))
    assert block.count("0") > 30_000 and got["length"] == length
    # bit n of the periodic concatenation is bit n mod c of the block
    assert got["bits"] == [int(block[(lo + i) % c]) for i in got["idx"]]
    assert got["elapsed_s"] < 1, got["elapsed_s"]
