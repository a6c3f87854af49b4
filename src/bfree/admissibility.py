"""Admissibility tests, exact block counting, and residue-profile recovery.

A finite word is admissible for a moduli set when its support misses at
least one residue class modulo every modulus; these are exactly the finite
patterns of the associated multiple-free subshift.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import BinaryWord, BSet
from .errors import Inadmissible, StateSpaceTooLarge

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

# Transfer-state counting keeps one hit-residue subset per modulus; the
# state space is bounded by prod 2^{b_k}, so cap sum b_k.
MAX_STATE_BITS = 24


def _hit_residues(positions, moduli: tuple[int, ...]) -> list[frozenset[int]]:
    """Residues hit by ``positions`` (a numpy array or any ints) mod each modulus.

    The cost follows the number of positions, never the size of a modulus.
    """
    if isinstance(positions, np.ndarray) and max(moduli, default=2) < 2**63:
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

    Dynamic programming over equivalence classes of partial words: the
    class of a prefix is its hit residues per modulus, packed into one int
    (position residues are implicit in the step index).  Counts are exact
    big integers; reachable for n in the thousands at small moduli where
    naive 2^n enumeration is hopeless.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    mods = bset.moduli
    if sum(mods) > MAX_STATE_BITS:
        raise StateSpaceTooLarge(
            f"sum of moduli {sum(mods)} exceeds budget {MAX_STATE_BITS}"
        )
    # Bit offsets[k] + r of a state is set iff the prefix has a 1 at a position
    # r mod b_k.  The bit after each field stays 0, so adding ``low`` (a 1 at
    # each field's first bit) carries into ``spare`` iff some field is full.
    offsets = [sum(mods[:k]) + k for k in range(len(mods))]
    low = sum(1 << off for off in offsets)
    spare = sum(1 << (off + b) for off, b in zip(offsets, mods))
    steps = [
        sum(1 << (off + r) for off, hit in zip(offsets, _hit_residues([i], mods)) for r in hit)
        for i in range(min(n_max, bset.period))
    ]
    states: dict[int, int] = {0: 1}
    counts: list[int] = []
    for i in range(n_max):
        step = steps[i % len(steps)]
        # bit 0 at position i: state unchanged
        nxt = states.copy()
        for state, c in states.items():
            # bit 1 at position i: insert i mod b_k everywhere
            grown = state | step
            if not (grown + low) & spare:
                nxt[grown] = nxt.get(grown, 0) + c
        states = nxt
        counts.append(sum(states.values()))
    return counts


def admissible_words(bset: BSet, n: int):
    """Yield all admissible words of length n as strings, lexicographically.

    Depth-first with exact pruning: a prefix is extendable iff its support
    already misses a residue mod every modulus (the all-zero extension
    then works), so no dead branches are visited.  The search keeps its
    own stack, so n is not limited by the recursion depth.
    """
    mods = bset.moduli
    # A state holds, per modulus, an int with bit r set iff the prefix has a
    # 1 at a position r mod b_k; positions stay below n, so the ints stay small.
    steps = [tuple(1 << r for hit in _hit_residues([i], mods) for r in hit) for i in range(n)]
    word: list[str] = []
    stack = [(0, "", tuple(0 for _ in mods))]  # (length, last symbol, state)
    while stack:
        i, bit, state = stack.pop()
        word[i - len(bit):] = bit  # the symbol at position i - 1, if any
        if i == n:
            yield "".join(word)
            continue
        grown = tuple(f | s for f, s in zip(state, steps[i]))
        if all(f.bit_count() < b for f, b in zip(grown, mods)):
            stack.append((i + 1, "1", grown))
        stack.append((i + 1, "0", state))  # on top, so "0" comes first


def entropy_from_complexity(p: list[int]) -> list[float]:
    """Per-length entropy estimates (1/n) log2 p_n, in bits per symbol.

    Each value is an upper bound for the entropy of the counted subshift.
    """
    if not p:
        raise ValueError("need at least one count")
    if any(x < 1 for x in p):
        raise ValueError("counts must be >= 1")
    return [math.log2(x) / (i + 1) for i, x in enumerate(p)]


def theta_window(word: BinaryWord, bset: BSet) -> list[frozenset[int] | None]:
    """Candidate odometer coordinates recovered from a finite window.

    For each modulus the candidates are the negatives of the residues the
    support misses.  A singleton means the coordinate is determined (the
    generic full-support case); a larger set means the window is too short
    to decide; ``None`` means the support covers every residue (the word is
    inadmissible at that modulus).  Ambiguity is reported, never guessed.
    """
    out: list[frozenset[int] | None] = []
    for hits, b in zip(residue_hits(word, bset), bset.moduli):
        missing = set(range(b)) - hits
        out.append(frozenset((-a) % b for a in missing) if missing else None)
    return out


def minimal_translation_period(residues: frozenset[int] | set[int], b: int) -> int:
    """Smallest j >= 1, dividing b, with residues - j == residues (mod b).

    Translations fixing the set form a subgroup of Z/bZ, generated by its
    least positive element, which divides b.  A translation by j fixing
    the set maps min(R) into R, so j == r - min(R) for some r in R: only
    those |R| shifts (and b) are tried, at O(|R|) each.  The empty set is
    fixed by every translation.
    """
    (target,) = _hit_residues(residues, (b,))
    if not target:
        return 1
    base = min(target)
    shifts = sorted({(r - base) % b for r in target} - {0} | {b})
    return next(
        j for j in shifts if b % j == 0 and all((r + j) % b in target for r in target)
    )


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
    entries = []
    for k, (hits, b) in enumerate(zip(residue_hits(word, bset), bset.moduli)):
        missing = frozenset(set(range(b)) - hits)
        if not missing:
            raise Inadmissible(k)
        entries.append((b, len(missing), missing, minimal_translation_period(missing, b)))
    return SpectrumProfile(tuple(entries))
