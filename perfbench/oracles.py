"""Independent oracles for checking the benchmark's results.

Nothing here calls into bfree: every expected value is recomputed from its
definition (direct modular tests, brute force, closed forms, exact
rational arithmetic), so a wrong answer from the package cannot also
appear in its own check.  Checks raise ``CheckFailed``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np


class CheckFailed(Exception):
    """A result disagrees with its oracle."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- sieved windows ---------------------------------------------------------

# Windows up to this length are checked at every position; longer ones at
# a seeded sample of positions plus both ends.
FULL_CHECK_BITS = 2_000_000
SAMPLED_POSITIONS = 100_000


def coding_at(n, moduli, forbidden):
    """1 where n avoids every forbidden residue: ``forbidden[k]`` is a set mod b_k."""
    n = np.asarray(n, dtype=np.int64)
    ok = np.ones(n.shape, dtype=bool)
    for b, residues in zip(moduli, forbidden):
        r = n % b
        for c in residues:
            ok &= r != c % b
    return ok.astype(np.uint8)


def check_window(word, lo, hi, moduli, forbidden, seed):
    """``word`` must be the coding over [lo, hi) that avoids ``forbidden``."""
    expect(word.offset == lo and len(word) == hi - lo, f"window [{word.offset}, +{len(word)}) != [{lo}, {hi})")
    bits = word.bits
    if hi - lo <= FULL_CHECK_BITS:
        idx = np.arange(hi - lo, dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        idx = np.concatenate(
            [np.arange(4096), np.arange(hi - lo - 4096, hi - lo), rng.integers(0, hi - lo, SAMPLED_POSITIONS)]
        ).astype(np.int64)
    wrong = np.flatnonzero(bits[idx] != coding_at(idx + lo, moduli, forbidden))
    expect(wrong.size == 0, f"bit at {lo + int(idx[wrong[0]]) if wrong.size else 0} differs from the modular test")


def free_of(moduli):
    return [{0}] * len(moduli)


# -- admissibility and block counts ----------------------------------------


def admissible_ints(moduli, n):
    """Admissible words of length n as ints, first letter most significant, ascending."""
    words = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(words.size, dtype=bool)
    for b in moduli:
        misses_some = np.zeros(words.size, dtype=bool)
        for c in range(b):
            mask = sum(1 << (n - 1 - i) for i in range(c, n, b))
            misses_some |= (words & mask) == 0
        ok &= misses_some
    return words[ok]


def brute_counts(moduli, n_max):
    return [int(admissible_ints(moduli, n).size) for n in range(1, n_max + 1)]


def closed_form_count(moduli, n):
    """p_n at P | n by inclusion and exclusion over the residues each modulus misses."""
    period = math.prod(moduli)
    expect(n % period == 0, "closed form needs P | n")
    total = 0
    for s in product(*(range(1, b + 1) for b in moduli)):
        sign = math.prod((-1) ** (sk + 1) * math.comb(b, sk) for sk, b in zip(s, moduli))
        total += sign * 2 ** ((n // period) * math.prod(b - sk for sk, b in zip(s, moduli)))
    return total


BRUTE_MAX_N = 14


def check_block_counts(counts, moduli, n_max):
    expect(isinstance(counts, list) and len(counts) == n_max, "wrong number of counts")
    brute = brute_counts(moduli, min(n_max, BRUTE_MAX_N))
    expect(counts[: len(brute)] == brute, "p_n differs from brute force")
    period = math.prod(moduli)
    for n in range(period, n_max + 1, period):
        expect(counts[n - 1] == closed_form_count(moduli, n), f"p_{n} differs from the closed form")
    for n in range(1, n_max):
        expect(counts[n - 1] <= counts[n], f"p_{n + 1} < p_{n}")
    for m in (1, 2, 3):
        for n in range(1, n_max - m + 1, max(1, n_max // 16)):
            expect(counts[m + n - 1] <= counts[m - 1] * counts[n - 1], f"p_{m + n} > p_{m} p_{n}")


def check_admissible_words(words, moduli, n):
    expect(isinstance(words, list), "expected a list")
    expected = [format(int(w), f"0{n}b") for w in admissible_ints(moduli, n)]
    expect(words == expected, f"{len(words)} words, expected {len(expected)} in lexicographic order")


def support_residue_hits(bits, offset, b):
    support = np.flatnonzero(bits).astype(np.int64) + offset
    return set(int(x) for x in np.unique(support % b))


def minimal_period(residues, b):
    return min(j for j in range(1, b + 1) if b % j == 0 and {(r - j) % b for r in residues} == set(residues))


def check_theta(result, word, moduli):
    expect(len(result) == len(moduli), "one entry per modulus")
    for cand, b in zip(result, moduli):
        missing = set(range(b)) - support_residue_hits(word.bits, word.offset, b)
        expected = frozenset((-a) % b for a in missing) if missing else None
        expect(cand == expected, f"theta mod {b}: {cand} != {expected}")


def check_spectrum(profile, word, moduli):
    expect(len(profile.entries) == len(moduli), "one entry per modulus")
    for (b, s, missing, bp), m in zip(profile.entries, moduli):
        expected = frozenset(set(range(m)) - support_residue_hits(word.bits, word.offset, m))
        expect((b, s, missing, bp) == (m, len(expected), expected, minimal_period(expected, m)), f"spectrum mod {m}")


def is_admissible_bits(bits, offset, moduli):
    return all(len(support_residue_hits(bits, offset, b)) < b for b in moduli)


# -- cylinders --------------------------------------------------------------


def haar_cylinder(moduli, entries):
    """Exact Haar average over one period: the share of phases t in [0, P)
    at which every fixed position n has eta(t + n) equal to its bit."""
    period = math.prod(moduli)
    t = np.arange(period, dtype=np.int64)
    ok = np.ones(period, dtype=bool)
    for n, bit in entries.items():
        ok &= coding_at(t + n, moduli, free_of(moduli)) == bit
    return Fraction(int(ok.sum()), period)


def exact_block_law(moduli, forbidden, m, p):
    """Exact probability of every length-m block under the coding measure with a
    Bernoulli(p) keep mask, by enumerating one full residue vector per phase."""
    law = {}
    rows = []
    for r in product(*(range(b) for b in moduli)):
        shifted = [{(c - rk) % b for c in cs} for rk, b, cs in zip(r, moduli, forbidden)]
        rows.append(coding_at(np.arange(m), moduli, shifted))
    weight = Fraction(1, len(rows))
    for row in rows:
        ones = [i for i in range(m) if row[i]]
        for kept in product((0, 1), repeat=len(ones)):
            block = ["0"] * m
            for i, k in zip(ones, kept):
                if k:
                    block[i] = "1"
            key = "".join(block)
            prob = weight * p ** sum(kept) * (1 - p) ** (len(ones) - sum(kept))
            law[key] = law.get(key, Fraction(0)) + prob
    return {k: v for k, v in law.items() if v}


def block_frequencies(matrix, m):
    """Share of each length-m block over all rows and positions of a 0/1 matrix."""
    windows = np.lib.stride_tricks.sliding_window_view(matrix, m, axis=1).reshape(-1, m)
    codes = windows.astype(np.int64) @ (1 << np.arange(m - 1, -1, -1))
    counts = np.bincount(codes, minlength=1 << m)
    total = windows.shape[0]
    return {format(c, f"0{m}b"): int(counts[c]) / total for c in np.flatnonzero(counts)}


# Per-block false-alarm probability of the frequency check, before the union
# over the few blocks checked per batch.
FREQUENCY_FALSE_ALARM = 1e-9


def frequency_bound(prob, samples):
    """Bernstein bound on |frequency - prob| for the mean over ``samples``
    independent windows; averaging positions inside one window cannot raise
    the variance above prob(1 - prob)."""
    log_term = math.log(2 / FREQUENCY_FALSE_ALARM)
    var = float(prob) * (1 - float(prob))
    return math.sqrt(2 * var * log_term / samples) + 2 * log_term / (3 * samples)


def check_frequencies(freqs, law, samples):
    for block in set(freqs) | set(law):
        f, p = freqs.get(block, 0.0), law.get(block, Fraction(0))
        expect(p > 0 or f == 0, f"block {block} sampled but has probability 0")
        expect(abs(f - float(p)) <= frequency_bound(p, samples), f"block {block}: frequency {f:.5f} vs law {float(p):.5f}")


# -- samplers ---------------------------------------------------------------


def batch_matrix(batch, lo, hi):
    expect(all(w.offset == lo and len(w) == hi - lo for w in batch.words), "batch windows misaligned")
    return np.stack([w.bits for w in batch.words]) if batch.words else np.zeros((0, hi - lo), np.uint8)


def residue_hits_matrix(matrix, lo, b):
    """(rows x b) bool: does the row's support hit each residue class mod b."""
    cols = (np.arange(matrix.shape[1]) + lo) % b
    return np.stack([matrix[:, cols == c].any(axis=1) for c in range(b)], axis=1)


def check_dominated(matrix, lo, moduli, forbidden):
    """Every row lies under the coding of some residue vector."""
    ok = np.ones(matrix.shape[0], dtype=bool)
    for b, cs in zip(moduli, forbidden):
        hits = residue_hits_matrix(matrix, lo, b).astype(np.int64)
        clash = np.zeros((b, b), dtype=np.int64)
        for r in range(b):
            for c in cs:
                clash[r, (c - r) % b] = 1
        ok &= ((hits @ clash.T) == 0).any(axis=1)
    bad = np.flatnonzero(~ok)
    expect(bad.size == 0, f"sampled word {int(bad[0]) if bad.size else 0} lies under no coding")


def check_codings(matrix, lo, moduli, forbidden):
    """Every row equals the coding of some residue vector."""
    hi = lo + matrix.shape[1]
    valid = set()
    for r in product(*(range(b) for b in moduli)):
        shifted = [{(c - rk) % b for c in cs} for rk, b, cs in zip(r, moduli, forbidden)]
        valid.add(coding_at(np.arange(lo, hi), moduli, shifted).tobytes())
    bad = [i for i, row in enumerate(matrix) if row.tobytes() not in valid]
    expect(not bad, f"sampled word {bad[0] if bad else 0} is no coding")


def check_sampler_law(batch, lo, hi, count, moduli, forbidden, p, m=3):
    matrix = batch_matrix(batch, lo, hi)
    expect(matrix.shape[0] == count, f"{matrix.shape[0]} samples, expected {count}")
    if p == 1:
        check_codings(matrix, lo, moduli, forbidden)
    else:
        check_dominated(matrix, lo, moduli, forbidden)
    check_frequencies(block_frequencies(matrix, m), exact_block_law(moduli, forbidden, m, p), count)


# -- rotation codings -------------------------------------------------------


def rational_rotation_bits(alpha, y, interval, lo, hi):
    """Exact bits [a <= frac(y + n alpha) < b] for rational alpha and y."""
    a, b = interval
    den = math.lcm(alpha.denominator, y.denominator, a.denominator, b.denominator)
    step, start = alpha.numerator * (den // alpha.denominator), y.numerator * (den // y.denominator)
    a_num, b_num = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    phase = [(start + n * step) % den for n in range(lo, hi)]
    return np.array([1 if a_num <= x < b_num else 0 for x in phase], dtype=np.uint8)


def golden_half_bits(lo, hi):
    """Exact bits [frac(n alpha) < 1/2] of the golden rotation from y = 0.

    With alpha = (sqrt(5) - 1)/2, 2 n alpha = +-sqrt(5 n^2) - n is irrational
    for n != 0, so its floor comes from an integer square root, and
    frac(n alpha) < 1/2 exactly when that floor is even.
    """
    out = np.empty(hi - lo, dtype=np.uint8)
    for i, n in enumerate(range(lo, hi)):
        root = math.isqrt(5 * n * n)
        floor_2x = root - n if n >= 0 else -root - 1 - n
        out[i] = floor_2x % 2 == 0
    return out


def check_bits(word, lo, expected, label):
    expect(word.offset == lo and len(word) == expected.size, f"{label}: wrong window")
    wrong = np.flatnonzero(word.bits != expected)
    expect(wrong.size == 0, f"{label}: bit at n={lo + int(wrong[0]) if wrong.size else 0} is wrong")


def blocks_of_text(text, n):
    return {text[i : i + n] for i in range(len(text) - n + 1)}


# -- inclusion and hereditary counts ---------------------------------------


def divides_criterion(moduli_a, moduli_b):
    return all(any(bp % a == 0 for a in moduli_a) for bp in moduli_b)


def check_witness(word, moduli_a, moduli_b):
    if divides_criterion(moduli_a, moduli_b):
        expect(word is None, "witness returned for an included pair")
        return
    expect(word is not None, "no witness for a non-included pair")
    expect(is_admissible_bits(word.bits, word.offset, moduli_a), "witness not admissible for A")
    expect(not is_admissible_bits(word.bits, word.offset, moduli_b), "witness admissible for B")


def dominated_count(blocks):
    n = len(blocks[0])
    words = np.arange(1 << n, dtype=np.int64)
    ok = np.zeros(words.size, dtype=bool)
    for block in blocks:
        ok |= (words & ~int(block, 2)) == 0
    return int(ok.sum())


def periodic_frequency(block, target, p):
    c, m = len(block), len(target)
    total = Fraction(0)
    for j in range(c):
        window = [block[(j + i) % c] for i in range(m)]
        if any(t == "1" and w == "0" for t, w in zip(target, window)):
            continue
        kept = target.count("1")
        total += p**kept * (1 - p) ** (window.count("1") - kept)
    return total / c
