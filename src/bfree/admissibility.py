"""Admissibility tests, exact block counting, and residue-profile recovery.

A finite word is admissible for a moduli set when its support misses at
least one residue class modulo every modulus; these are exactly the finite
patterns of the associated multiple-free subshift.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .core import BinaryWord, BSet, Residues
from .errors import BudgetExceeded, Inadmissible, StateSpaceTooLarge

__all__ = [
    "SpectrumProfile",
    "is_admissible",
    "residue_hits",
    "block_complexity",
    "entropy_from_complexity",
    "theta_window",
    "spectrum_profile",
    "minimal_translation_period",
]

# Block counting runs one inclusion–exclusion term per tuple of nonempty
# missed-class sets, prod_{k<K} (2^{b_k} - 1) < 2^{sum b_k} of them, so
# cap sum b_k.
MAX_STATE_BITS = 24

# Longest word length that block_complexity and admissible_words accept.
# p_n <= 2^n, so every count prints within Python's 4300-digit int -> str
# limit (2^14000 has 4215 digits).
MAX_BLOCK_LENGTH = 14_000

# The walk advances s kept positions per length (see _period_recurrence)
# over min(n, d P) lengths; s times that many lengths is capped.  On a
# shared 2-vCPU Xeon, [11,13] (s = 1023) took 0.47 s at n = 900 and 0.89 s
# at n = 1200, and [3,4,5,7] (s = 315) 0.82 s at n = 3300, so the cap
# admits about 1 s of walk.
MAX_WALK_STEPS = 1 << 20

# Past d P the recurrence does d multiply-adds per length n, each an
# alpha_t times a count of at most n bits: at most (bits(alpha_t) // 30 + 2)
# x (n / 30 + 1) products of CPython's 30-bit digits, summed over t and n.
# On a shared 2-vCPU Xeon, coprime sets with sum b_k <= 24 at n = 7000 and
# 14000 gave 92 tails over 0.1 s, at 0.13-1.4 ns per digit product: every
# tail the cap admits took at most 0.72 s, every refused one at least
# 0.40 s.  [4,9] at n = 14000 (3.4e8 products, 0.42 s) is admitted;
# [8,9] (1.6e9, 1.15 s) and [7,9] (1.3e9, 0.80 s) are refused.
MAX_TAIL_DIGITS = 1 << 30

# The period recurrence replaces the walk past d P where d <= factor * s
# (see _period_recurrence).  In a sweep over 19 shapes at n = 2dP..2000,
# every shape with d <= 4 s ran faster on it; d = 5 s ran 0.96x at n = 200.
_RECURRENCE_FACTOR = 4

# theta_window and spectrum_profile list the residues a word misses, one
# set entry each, so cap b - |H_k| before any set is built.
MAX_MISSING_RESIDUES = 1 << 16


def _hit_residues(positions, moduli: tuple[int, ...]) -> list[frozenset[int]]:
    """Residues hit by ``positions`` (a numpy array or any ints) mod each modulus.

    The cost follows the number of positions, never the size of a modulus.
    An array is told by its ``ndim``, so this module never imports numpy.
    """
    if hasattr(positions, "ndim") and max(moduli, default=2) < 2**63:
        return [frozenset((positions % b).tolist()) for b in moduli]
    positions = [int(n) for n in positions]
    return [frozenset(n % b for n in positions) for b in moduli]


def residue_hits(word: BinaryWord, bset: BSet) -> list[set[int]]:
    """Residues modulo each b_k hit by the word's support."""
    return [set(h) for h in _hit_residues(word.support, bset.moduli)]


def is_admissible(word: BinaryWord, bset: BSet) -> bool:
    """True iff the support misses a residue class mod every modulus.

    Depends only on the bits, not the offset, and is hereditary: clearing
    ones never destroys admissibility.
    """
    return all(len(h) < b for h, b in zip(residue_hits(word, bset), bset.moduli))


def block_complexity(bset: BSet, n_max: int) -> list[int]:
    """Exact counts p_1..p_{n_max} of admissible words of each length.

    Inclusion–exclusion over missed residues.  A word whose hits mod b_k
    are H_k misses a class mod b_k iff the sum, over nonempty C_k inside
    Z/b_k minus H_k, of (-1)^{|C_k|+1} is 1 (it is 0 otherwise).  This is
    expanded for every modulus but the largest, b_K.  A tuple
    (C_1..C_{K-1}) keeps the positions whose residues avoid every C_k; if
    n_r of those below m are r mod b_K, the words on them that miss a
    class mod b_K number 2^{sum n_r} - prod_r (2^{n_r} - 1).  Each term is
    advanced one kept position at a time and its signed increments are
    summed into p_m.  There are prod_{k<K} (2^{b_k} - 1) terms, fewer once
    tuples keeping the same positions are merged.

    For pairwise coprime moduli, P = prod b_k, a tuple C = (C_1..C_K) keeps
    a_C(n + P) = a_C(n) + e_C positions, e_C = prod (b_k - |C_k|) in
    E = {prod a_k : 0 <= a_k < b_k}.  So p_n = sum_C sgn(C) 2^{a_C(n)}
    obeys p_n = sum_{t=1..d} alpha_t p_{n-tP}, d = |E|, where
    x^d - sum_t alpha_t x^{d-t} = prod_{e in E} (x - 2^e).  The walk then
    stops at d P and the recurrence, d multiply-adds per length, gives
    the rest.  It runs only where it is cheaper: when
    d <= _RECURRENCE_FACTOR * s, s being the walk's kept positions per
    length (every other set, and lengths up to d P, stay on the walk).

    A sum of moduli over MAX_STATE_BITS raises StateSpaceTooLarge, then
    n_max over MAX_BLOCK_LENGTH raises BudgetExceeded, then s times the
    walked lengths over MAX_WALK_STEPS, then the recurrence's digit
    products over MAX_TAIL_DIGITS raise BudgetExceeded, all before any
    work.  Counts are exact big integers.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    mods = bset.moduli
    if sum(mods) > MAX_STATE_BITS:
        raise StateSpaceTooLarge(
            f"sum of moduli {sum(mods)} exceeds budget {MAX_STATE_BITS}"
        )
    _check_length(n_max)
    if not mods:
        return [2**n for n in range(1, n_max + 1)]
    *rest, last = mods
    # Kept positions repeat with period prod(rest), so a term is stored as
    # the bitmask of its kept positions below ``width``.
    cycle = math.prod(rest)
    width = min(cycle, n_max)
    period = cycle * last
    per_length = math.prod((1 << (b - 1)) - 1 for b in rest)
    # d >= last, since E holds 0..last - 1: shorter lengths stay on the walk
    alphas = _period_recurrence(mods, period, n_max, per_length) if n_max > last * period else []
    walked = len(alphas) * period or n_max
    if per_length * walked > MAX_WALK_STEPS:
        raise BudgetExceeded(
            f"{walked} lengths of {per_length} kept positions exceed budget {MAX_WALK_STEPS}"
        )
    tail = sum(a.bit_length() // 30 + 2 for a in alphas) * (
        (n_max * (n_max + 1) - walked * (walked + 1)) // 60 + n_max - walked
    )
    if tail > MAX_TAIL_DIGITS:
        raise BudgetExceeded(
            f"recurrence tail of {tail} digit products exceeds budget {MAX_TAIL_DIGITS}"
        )
    steps = [0] * walked  # steps[i] = p_{i+1} - p_i
    for kept, weight in _term_weights(rest, width).items():
        if kept and weight:
            _add_term(steps, weight, kept, width, last)
    counts = list(itertools.accumulate(steps, initial=1))
    for n in range(walked + 1, n_max + 1):
        total, back = 0, n
        for alpha in alphas:
            back -= period
            total += alpha * counts[back]
        counts.append(total)
    return counts[1:]


def _check_length(n: int) -> None:
    if n > MAX_BLOCK_LENGTH:
        raise BudgetExceeded(f"length {n} exceeds budget {MAX_BLOCK_LENGTH}")


def _period_recurrence(
    mods: tuple[int, ...], period: int, n_max: int, per_length: int
) -> list[int]:
    """alpha_1..alpha_d of the period recurrence, or [] to stay on the walk.

    The walk advances at most s = ``per_length``, prod_{k<K} (2^{b_k - 1}
    - 1), kept positions per length: each position is kept by the tuples
    of nonempty C_k that miss its residue mod every b_k, k < K.  The
    recurrence needs coprime moduli, d <= _RECURRENCE_FACTOR * s and
    n_max > d P.  E holds 0..b_k - 1 for every k, so a b_k over
    _RECURRENCE_FACTOR * s settles on the walk before E is built.
    """
    if period != math.lcm(*mods):
        return []
    max_d = _RECURRENCE_FACTOR * per_length
    if max(mods) > max_d:
        return []
    exponents = {1}
    for b in mods:
        exponents = {e * a for e in exponents for a in range(b)}
    d = len(exponents)
    if d > max_d or n_max <= d * period:
        return []
    poly = [1]  # prod (x - 2^e), highest power first
    for e in exponents:
        poly = [c - (poly[i - 1] << e if i else 0) for i, c in enumerate(poly + [0])]
    return [-c for c in poly[1:]]


def _term_weights(rest: list[int], width: int) -> dict[int, int]:
    """Net sign of the tuples (C_1..C_{K-1}) that keep each set of positions.

    Keys are bitmasks of the positions in [0, width) whose residue mod
    each b_k avoids C_k; tuples that keep the same positions are merged
    by adding their signs prod (-1)^{|C_k|+1}.
    """
    everything = (1 << width) - 1
    weights = {everything: 1}
    for b in rest:
        classes = [sum(1 << q for q in range(c, width, b)) for c in range(b)]
        merged: dict[int, int] = {}
        for missed in range(1, 1 << b):
            keep = everything & ~sum(m for c, m in enumerate(classes) if missed >> c & 1)
            sign = 1 if missed.bit_count() & 1 else -1
            for kept, w in weights.items():
                merged[kept & keep] = merged.get(kept & keep, 0) + sign * w
        weights = merged
    return weights


def _add_term(steps: list[int], weight: int, kept: int, width: int, last: int) -> None:
    """Add weight times one term's increments, at its kept positions, to steps.

    The term counts 2^N - prod_r F_r words, where F_r = 2^{n_r} - 1 over
    the n_r kept positions r mod ``last`` so far and N = sum n_r.
    """
    residues = []
    while kept:
        low = kept & -kept
        residues.append(low.bit_length() - 1)
        kept ^= low
    factors = [0] * last
    full = 0  # prod(factors), nonzero once every class has a kept position
    words = 1  # 2^N
    for base in range(0, len(steps), width):
        for q in residues:
            i = base + q
            if i >= len(steps):
                break
            r = i % last
            f = factors[r]
            factors[r] = 2 * f + 1
            if full:
                grown = full + full + full // f  # times (2f + 1) / f
            elif f or 0 in factors:  # a class still has no kept position
                grown = 0
            else:
                grown = math.prod(factors)
            steps[i] += weight * (words - grown + full)
            full = grown
            words <<= 1


def admissible_words(bset: BSet, n: int):
    """Yield all admissible words of length n as strings, lexicographically.

    Depth-first with exact pruning: a prefix is extendable iff its support
    already misses a residue mod every modulus (the all-zero extension
    then works), so no dead branches are visited.

    The state is one int.  Each modulus b <= n owns b residue bits (bit r
    set iff the prefix has a 1 at a position r mod b) and a guard bit above
    them; a larger modulus cannot be covered by n positions and gets none.
    A 1 at position i is allowed iff ``((state | steps[i]) + low) & guard``
    is 0, since adding a field's low bit carries into its guard only when
    the field is full.  Each stack entry is one word, its prefix up to its
    last 1 followed by zeros; it pushes the 1s its zero tail allows, so the
    deepest pops first.  The search keeps its own stack, so n is not
    limited by the recursion depth.  An n over MAX_BLOCK_LENGTH raises
    BudgetExceeded before any table is built.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_length(n)
    steps, low, guard, shift = [0] * n, 0, 0, 0
    for b in bset.moduli:
        if b <= n:
            low |= 1 << shift
            guard |= 1 << (shift + b)
            for i in range(n):
                steps[i] |= 1 << (shift + i % b)
            shift += b + 1
    tail = [(i + 1, step) for i, step in enumerate(steps)]
    one = "1" + "0" * n
    word = "0" * n
    stack = [(0, 0)]  # (length of the word's prefix up to its last 1, state)
    pop, push = stack.pop, stack.append
    while stack:
        i, state = pop()
        if i:  # the word on top shares the previous one's first i - 1 bits
            word = word[: i - 1] + one[: n - i + 1]
        yield word
        for j, step in tail[i:]:
            grown = state | step
            if not (grown + low) & guard:
                push((j, grown))


def entropy_from_complexity(p: list[int]) -> list[float]:
    """Per-length entropy estimates (1/n) log2 p_n, in bits per symbol.

    Each value is an upper bound for the entropy of the counted subshift.
    """
    if not p:
        raise ValueError("need at least one count")
    if any(x < 1 for x in p):
        raise ValueError("counts must be >= 1")
    return [math.log2(x) / (i + 1) for i, x in enumerate(p)]


def _missing_residues(hits: list[frozenset[int]], moduli) -> list[frozenset[int]]:
    """Residues mod each b_k outside its hit set.

    Raises :class:`BudgetExceeded` before any set is built when some
    modulus would list more than ``MAX_MISSING_RESIDUES`` of them.
    """
    for h, b in zip(hits, moduli):
        if b - len(h) > MAX_MISSING_RESIDUES:
            raise BudgetExceeded(
                f"{b - len(h)} missing residues mod {b} exceed budget {MAX_MISSING_RESIDUES}"
            )
    return [frozenset(range(b)).difference(h) for h, b in zip(hits, moduli)]


def theta_window(word: BinaryWord, bset: BSet) -> list[frozenset[int] | None]:
    """Candidate odometer coordinates recovered from a finite window.

    For each modulus the candidates are the negatives of the residues the
    support misses.  A singleton means the coordinate is determined (the
    generic full-support case); a larger set means the window is too short
    to decide; ``None`` means the support covers every residue (the word is
    inadmissible at that modulus).  Ambiguity is reported, never guessed.
    """
    mods = bset.moduli
    return [
        frozenset((-a) % b for a in missing) if missing else None
        for missing, b in zip(_missing_residues(_hit_residues(word.support, mods), mods), mods)
    ]


def minimal_translation_period(residues: frozenset[int] | set[int], b: int) -> int:
    """Smallest j >= 1, dividing b, with residues - j == residues (mod b):
    the period :attr:`bfree.core.Residues.periods` derives, after reducing
    the residues mod b.  The empty set is fixed by every translation."""
    return Residues((b,), tuple(_hit_residues(residues, (b,)))).periods[0]


@dataclass(frozen=True)
class SpectrumProfile:
    """Per-modulus record (b_k, s_k, missing residues, minimal period b'_k)."""

    entries: tuple[tuple[int, int, frozenset[int], int], ...]

    def to_json(self) -> str:
        return json.dumps(
            [
                {"b": b, "s": s, "missing": sorted(miss), "b_prime": bp}
                for b, s, miss, bp in self.entries
            ]
        )


def spectrum_profile(word: BinaryWord, bset: BSet) -> SpectrumProfile:
    """Missing residues, their count s_k and minimal period b'_k per modulus.

    Requires the word to be admissible; raises :class:`Inadmissible` with
    the offending modulus index otherwise.
    """
    hits = _hit_residues(word.support, bset.moduli)
    entries = []
    for k, (h, missing, b) in enumerate(zip(hits, _missing_residues(hits, bset.moduli), bset.moduli)):
        if not missing:
            raise Inadmissible(k)
        # a set and its complement in Z/b have one translation stabilizer,
        # and H_k holds at most one residue per 1 of the word
        entries.append((b, len(missing), missing, minimal_translation_period(h, b)))
    return SpectrumProfile(tuple(entries))
