"""Rotation codings, periodic hereditary systems, and counterexample builds.

Rotation phases are tracked in 128-bit fixed point; a bit is only emitted
when the accumulated truncation error cannot flip it, otherwise
PrecisionExhausted is raised.  The coder computes the fixed-point phases
exactly, as two uint64 limbs per position in numpy integer arithmetic
(no floats; Knuth, TAOCP vol. 2, 4.3.1), and filters them: a position
whose high limb is far from every endpoint's high limb gets its bit from
a limb comparison, and only the few near an endpoint go through the
big-int error rule (the filter-then-exact pattern of Shewchuk, 1997).
Block catalogues are sets of integer window codes, decoded once.
Hereditary-closure block counts use the dominated-enumeration identity
(count words lying under some occurring block) and never materialize the
closure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable

import numpy as np

from . import admissibility, sieve
from .core import BinaryWord
from .errors import (
    BudgetExceeded,
    NotMinimalPeriod,
    NotSaturated,
    PrecisionExhausted,
    PreconditionUnmet,
    StateSpaceTooLarge,
    TargetTooLong,
    WindowTooLarge,
)
from .measures import _block_codes, _distinct_counts, _sample

__all__ = [
    "RotationCoding",
    "PeriodicHereditarySystem",
    "sturmian_window",
    "collect_blocks",
    "rotation_complexity",
    "hereditary_closure_count",
    "hereditary_entropy_estimate",
    "two_mme_system",
    "mme_block_frequency",
    "sample_periodic_windows",
    "transitive_closure_point",
    "minimal_subset_variant",
    "close_alpha_block_containment",
]

_BITS = 128
_MOD = 1 << _BITS
_LIMB = 1 << 64

# Positions per pass of the sturmian_window limb kernel; bounds its temporaries.
_CHUNK = 1 << 16

# Longest forward orbit collect_blocks scans before giving up on saturation.
MAX_ORBIT_BITS = 1 << 21

# Stages transitive_closure_point runs before giving up on reaching length.
MAX_STAGES = 64


def _to_fixed(x) -> int:
    """Truncate a real in [0, 1] to 128 fractional bits."""
    f = Fraction(x)
    if not 0 <= f <= 1:
        raise ValueError("value must lie in [0, 1]")
    return (f.numerator << _BITS) // f.denominator


def _continued_fraction(value: Fraction, max_terms: int = 64) -> list[int]:
    """Partial quotients of value in (0,1): value = 1/(a1 + 1/(a2 + ...))."""
    terms = []
    num, den = value.numerator, value.denominator
    while num and len(terms) < max_terms:
        a, r = divmod(den, num)
        terms.append(a)
        num, den = r, num
    return terms


@dataclass(frozen=True)
class RotationCoding:
    """Coding of the rotation n -> {y + n*alpha} by the interval [a, b).

    alpha and y are stored as 128-bit fixed-point fractions of [0, 1);
    the interval endpoints stay exact rationals.
    """

    alpha_fixed: int
    y_fixed: int = 0
    interval: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1, 2))

    def __post_init__(self):
        if not 0 < self.alpha_fixed < _MOD:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0 <= self.y_fixed < _MOD:
            raise ValueError("y must lie in [0, 1)")
        a, b = (Fraction(x) for x in self.interval)
        if not 0 <= a < b <= 1:
            raise ValueError("interval must satisfy 0 <= a < b <= 1")
        object.__setattr__(self, "interval", (a, b))

    @classmethod
    def golden(cls, y=0, interval=(Fraction(0), Fraction(1, 2))) -> "RotationCoding":
        """alpha = (sqrt(5) - 1)/2, truncated to 128 bits."""
        alpha = (math.isqrt(5 << (2 * _BITS)) - _MOD) // 2
        return cls(alpha, _to_fixed(y), interval)

    @classmethod
    def from_real(cls, alpha, y=0, interval=(Fraction(0), Fraction(1, 2))) -> "RotationCoding":
        return cls(_to_fixed(alpha), _to_fixed(y), interval)

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.alpha_fixed, _MOD)

    def continued_fraction_prefix(self, max_terms: int = 40) -> list[int]:
        return _continued_fraction(self.alpha, max_terms)

    def to_json(self) -> str:
        a, b = self.interval
        return json.dumps(
            {
                "alpha_cf": self.continued_fraction_prefix(),
                "alpha_fixed": format(self.alpha_fixed, "x"),
                "y": format(self.y_fixed, "x"),
                "interval": [str(a), str(b)],
            }
        )


def _exact_bit(coding: RotationCoding, n: int, ends, thresholds) -> int:
    # The big-int rule for one position: its bit, or PrecisionExhausted when
    # an endpoint lies within the truncation error of the computed phase.
    phase = (coding.y_fixed + n * coding.alpha_fixed) % _MOD
    err = abs(n) + 1
    for num, den in ends:
        # cyclic distance from phase to the endpoint, in units/den
        delta = (phase * den - num) % (_MOD * den)
        dist = min(delta, _MOD * den - delta)
        if dist < err * den and (dist > 0 or n < 0):
            raise PrecisionExhausted(f"phase at n={n} within {err} units of an interval endpoint")
    t_a, t_b = thresholds
    return int(t_a <= phase < t_b)


def _at_least(high: np.ndarray, low: np.ndarray, t: int) -> np.ndarray:
    # phase >= t, for phases given as (high, low) uint64 limbs and 0 <= t <= 2^128
    if t == _MOD:
        return np.zeros(high.shape, dtype=bool)
    t_hi, t_lo = (np.uint64(x) for x in divmod(t, _LIMB))
    return (high > t_hi) | ((high == t_hi) & (low >= t_lo))


def sturmian_window(coding: RotationCoding, lo: int, hi: int) -> BinaryWord:
    """Exact coding bits over [lo, hi).

    alpha and y are both truncated, by less than one unit each (one unit
    = 2^-128), so the true phase at step n lies within |n| + 1 units of
    the computed one: above it by less than n + 1 for n >= 0, and for
    n < 0 below it by less than |n| or above it by less than 1.  A bit is
    emitted only when no interval endpoint falls strictly inside that
    range, nor, for n < 0, exactly on the computed phase; otherwise
    :class:`PrecisionExhausted` is raised, at the first such n.

    The computed phase (y + n*alpha) mod 2^128 itself is exact.  It is
    carried as a high and a low uint64 limb, in chunks of ``_CHUNK``
    positions: p(start) + i*alpha, with p(start) from Python ints and
    i*alpha from wrapping limb products, a 32-bit-half mulhi and the
    carry.  The bit is phase >= ceil(a 2^128) and phase < ceil(b 2^128),
    compared limb by limb.  With E = max |n| + 1 over the window and
    margin = floor(E / 2^64) + 1, a position whose high limb is more than
    margin high-limb units (2^64 units each) from each endpoint's high
    limb lies more than margin 2^64 > E units from every endpoint, so
    its limb bit stands.  Every other position falls back to the big-int
    rule above, in ascending n, so the first PrecisionExhausted is the
    same as a position-by-position scan's.  Raises
    :class:`WindowTooLarge` before any allocation when the window exceeds
    ``sieve.MAX_WINDOW_BITS``.
    """
    if hi <= lo:
        raise ValueError("empty window")
    if hi - lo > sieve.MAX_WINDOW_BITS:
        raise WindowTooLarge(f"window of {hi - lo} bits exceeds budget {sieve.MAX_WINDOW_BITS}")
    # endpoint positions as exact fractions of the circle, cross-multiplied
    ends = [(f.numerator * _MOD, f.denominator) for f in coding.interval]
    thresholds = [-(-num // den) for num, den in ends]
    # the endpoints' high limbs; endpoint 1 sits on 0 of the circle
    end_hi = [np.uint64(num // den % _MOD >> 64) for num, den in ends]
    # a high-limb distance d > margin puts the phase more than
    # (d - 1) 2^64 >= margin 2^64 > |n| + 1 units from the endpoint
    margin = ((max(abs(lo), abs(hi - 1)) + 1) >> 64) + 1
    i = np.arange(min(_CHUNK, hi - lo), dtype=np.uint64)
    alpha_hi, alpha_lo = divmod(coding.alpha_fixed, _LIMB)
    alpha_lo1, alpha_lo0 = (np.uint64(x) for x in divmod(alpha_lo, 1 << 32))
    # i * alpha mod 2^128 for i < 2^32: low limb wraps, high limb adds
    # mulhi(i, alpha_lo) from 32-bit halves (no partial sum passes 2^64)
    step_lo = i * np.uint64(alpha_lo)
    step_hi = i * np.uint64(alpha_hi) + (
        (i * alpha_lo1 + (i * alpha_lo0 >> np.uint64(32))) >> np.uint64(32)
    )
    bits = np.empty(hi - lo, dtype=np.uint8)
    for start in range(lo, hi, _CHUNK):
        size = min(_CHUNK, hi - start)
        p_hi, p_lo = (
            np.uint64(x) for x in divmod((coding.y_fixed + start * coding.alpha_fixed) % _MOD, _LIMB)
        )
        low = step_lo[:size] + p_lo
        high = step_hi[:size] + p_hi + (low < p_lo)
        out = bits[start - lo : start - lo + size]
        out[:] = _at_least(high, low, thresholds[0]) & ~_at_least(high, low, thresholds[1])
        if margin >= 1 << 63:  # the error spans half the circle
            near = np.ones(size, dtype=bool)
        else:
            near = np.zeros(size, dtype=bool)
            for e in end_hi:
                near |= high - e + np.uint64(margin) <= np.uint64(2 * margin)
        for j in np.flatnonzero(near).tolist():
            out[j] = _exact_bit(coding, start + j, ends, thresholds)
    bits.setflags(write=False)
    return BinaryWord._views([bits], [int(lo)])[0]


def collect_blocks(coding: RotationCoding, n: int) -> set[str]:
    """Distinct n-blocks along the forward orbit, with saturation control.

    Doubles the scanned orbit length, from 64 n bits, until the block set
    is stable across two consecutive doublings; raises NotSaturated when
    the next doubling would pass ``MAX_ORBIT_BITS``.  Blocks are kept as
    integer codes and only the distinct ones are decoded.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    length = 64 * n
    bits = sturmian_window(coding, 0, length).bits
    codes = set(_distinct_counts(_block_codes(bits[None], n))[0].tolist())
    stable = 0
    while stable < 2:
        if 2 * length > MAX_ORBIT_BITS:
            raise NotSaturated(f"block count still growing at orbit length {length}")
        # the last n - 1 bits start the blocks that cross into the new half
        more = sturmian_window(coding, length, 2 * length).bits
        bits = np.concatenate([bits[len(bits) - n + 1 :], more])
        length *= 2
        before = len(codes)
        codes.update(_distinct_counts(_block_codes(bits[None], n))[0].tolist())
        stable = stable + 1 if len(codes) == before else 0
    return {format(code, f"0{n}b") for code in codes}


def rotation_complexity(coding: RotationCoding, n_max: int) -> list[int]:
    """Saturated counts of distinct n-blocks for n = 1..n_max."""
    return [len(collect_blocks(coding, n)) for n in range(1, n_max + 1)]


def _dominated_masks(block: str) -> Iterable[int]:
    positions = [i for i, c in enumerate(block) if c == "1"]
    masks = [0]
    for p in positions:
        masks += [m | (1 << p) for m in masks]
    return masks


def hereditary_closure_count(blocks: Iterable[str]) -> int:
    """Number of words dominated by at least one of the given blocks.

    It enumerates 2^ones words per block, so it raises StateSpaceTooLarge
    up front when their sum exceeds 2^``admissibility.MAX_STATE_BITS``.
    """
    blocks, cap = list(blocks), admissibility.MAX_STATE_BITS
    if sum(1 << block.count("1") for block in blocks) > 1 << cap:
        raise StateSpaceTooLarge(f"dominated words of the blocks exceed budget 2^{cap}")
    seen: set[int] = set()
    for block in blocks:
        seen.update(_dominated_masks(block))
    return len(seen)


def hereditary_entropy_estimate(coding: RotationCoding, n: int) -> float:
    """Certified lower-bound entropy estimate for the hereditary closure.

    Counts the words dominated by the coding's window [0, n): there are
    2^#ones of them, all closure blocks, so (1/n) log2 gives #ones/n bits.
    This converges at the speed of the one-density; the full closure count
    (:func:`hereditary_closure_count`) has a polynomial prefactor that
    distorts (1/n) log2 p_n for small n.
    """
    return sturmian_window(coding, 0, n).ones / n


@dataclass(frozen=True)
class PeriodicHereditarySystem:
    """Hereditary closure of the periodic point repeating ``block``.

    The block must be its own minimal period.
    """

    block: BinaryWord

    def __post_init__(self):
        n = len(self.block)
        if n == 0:
            raise NotMinimalPeriod("empty block")
        text = self.block.to_string()
        for d in range(1, n):
            if n % d == 0 and text == text[:d] * (n // d):
                raise NotMinimalPeriod(f"block repeats with period {d} < {n}")

    def window(self, lo: int, hi: int) -> BinaryWord:
        """The periodic concatenation restricted to [lo, hi)."""
        if hi <= lo:
            raise ValueError("empty window")
        if hi - lo > sieve.MAX_WINDOW_BITS:
            raise WindowTooLarge(f"window of {hi - lo} bits exceeds budget")
        c = len(self.block)
        # reduce the start in Python, so coordinates past int64 index too
        idx = (np.arange(hi - lo) + (lo - self.block.offset) % c) % c
        return BinaryWord(self.block.bits[idx], lo)


def two_mme_system() -> tuple[PeriodicHereditarySystem, PeriodicHereditarySystem]:
    """Two period-9 hereditary systems with equal entropy 1/3 bits.

    Their gap structures (2,3,4) vs (2,4,3) are not cyclic translates, so
    block-frequency statistics under the masked uniform-phase measure
    separate them.
    """
    return (
        PeriodicHereditarySystem(BinaryWord.from_string("101001000")),
        PeriodicHereditarySystem(BinaryWord.from_string("101000100")),
    )


def mme_block_frequency(
    system: PeriodicHereditarySystem, target: BinaryWord, p
) -> Fraction:
    """Exact probability that the window [0, |target|) shows ``target``.

    The measure is uniform phase times an independent Bernoulli(p) keep
    mask on the ones.  Phases whose window fails to dominate the target
    contribute zero.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    c = len(system.block)
    L = len(target)
    if L > 2 * c:
        raise TargetTooLong(f"target length {L} exceeds 2 * {c}")
    t_bits = target.bits
    total = Fraction(0)
    for j in range(c):
        window = system.window(j, j + L).bits
        if np.any(t_bits > window):
            continue
        kept = int(t_bits.sum())
        dropped = int(window.sum()) - kept
        total += p**kept * (1 - p) ** dropped
    return total / c


def sample_periodic_windows(
    system: PeriodicHereditarySystem, p, length: int, count: int, seed: int
) -> np.ndarray:
    """Read-only count x length uint8 array of masked windows at uniform phases.

    Row i is the window [j_i, j_i + length) of the periodic point with each
    1 kept w.p. p: the ``sample_generalized`` rows, same seed, for modulus c
    forbidding the phases of the block's zeros (:mod:`bfree.measures`).
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    c, offset = len(system.block), system.block.offset
    zeros = frozenset((i + offset) % c for i in np.flatnonzero(system.block.bits == 0).tolist())
    return _sample((c,), (zeros,), (c,), p, 0, length, count, seed)[0]


def transitive_closure_point(
    blocks_of: Callable[[int], Iterable[str]], h_bits: float, n1: int, length: int
) -> BinaryWord:
    """Prefix of a transitive point of a hereditary shift with entropy > 0.

    Inductive concatenation: with L = ceil(1/h_bits), stage 1 lays out the
    length-n1 block catalogue separated by zero runs of length L*n1; each
    later stage takes n_k = current prefix length and appends, between
    zero runs of length L*n_k, the full length-n_k catalogue followed by
    every word dominated by the current prefix, both in lexicographic
    order.  ``blocks_of(n)`` must yield lexicographically and lazily; it
    is consumed only until ``length`` is reached.  Deterministic given
    the catalogue order; truncated to ``length``, which ``sieve.MAX_WINDOW_BITS``
    caps.  Raises :class:`BudgetExceeded` when ``MAX_STAGES`` stages fall
    short of it.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if length > sieve.MAX_WINDOW_BITS:
        raise WindowTooLarge(f"length {length} exceeds budget {sieve.MAX_WINDOW_BITS}")
    if length == 0:
        return BinaryWord(np.zeros(0, dtype=np.uint8))
    if h_bits <= 0:
        raise ValueError("h_bits must be positive")
    L = math.ceil(1 / h_bits)
    pieces: list[str] = []

    def stages() -> Iterable[str]:
        z = "0" * (L * n1)
        for block in blocks_of(n1):
            yield from (block, z)
        for _ in range(MAX_STAGES):
            prefix = "".join(pieces)  # every piece yielded so far
            z = "0" * (L * len(prefix))
            yield z
            for block in blocks_of(len(prefix)):
                yield from (block, z)
            # dominated words of the prefix, lexicographically: free choice at
            # each support position, leftmost bit most significant
            ones = [i for i, ch in enumerate(prefix) if ch == "1"]
            word = list(prefix)
            for choice in product("01", repeat=len(ones)):
                for pos, bit in zip(ones, choice):
                    word[pos] = bit
                yield from ("".join(word), z)

    total = 0
    for piece in stages():
        pieces.append(piece)
        total += len(piece)
        if total >= length:
            return BinaryWord.from_string("".join(pieces)[:length])
    raise BudgetExceeded(f"{MAX_STAGES} stages did not reach length {length}")


def minimal_subset_variant(
    system: PeriodicHereditarySystem, primes: list[int], lo: int, hi: int
) -> BinaryWord:
    """Periodic concatenation with a sparse set of whole blocks zeroed.

    Block index n is zeroed when n == k - 1 (mod p_1 * ... * p_k) for some
    k and n != k - 1.  The surviving blocks keep every catalogue block
    visible while the zeroed ones create unbounded zero runs with bounded
    gaps, killing minimality of the closure's natural candidate subsets.
    """
    if any(primes[i] >= primes[i + 1] for i in range(len(primes) - 1)):
        raise ValueError("primes must be strictly increasing")
    if primes and primes[0] < 2:
        raise ValueError("primes must be >= 2")
    word = system.window(lo, hi)
    c = len(system.block)
    first, last = lo // c, (hi - 1) // c
    # block indices as offsets from first, which stay small past int64
    zeroed = np.zeros(last - first + 1, dtype=bool)
    P = 1
    for k, p in enumerate(primes, start=1):
        P *= p
        # a zeroed n lies at least P away from k - 1, and P outgrows that
        # distance faster than k moves it, so no later product can zero n
        if P > max(abs(first - k + 1), abs(last - k + 1)):
            break
        hit = np.zeros_like(zeroed)
        hit[(k - 1 - first) % P :: P] = True
        if 0 <= k - 1 - first < len(hit):
            hit[k - 1 - first] = False
        zeroed |= hit
    return BinaryWord(np.where(zeroed[(np.arange(hi - lo) + lo % c) // c], 0, word.bits), lo)


def close_alpha_block_containment(alpha, beta, n: int) -> bool:
    """Check that every n-block of the beta-coding occurs in the alpha one.

    Valid under two preconditions: alpha's partial quotients are at most 2
    over the tested prefix, and |alpha - beta| < 1/(48 n^2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = RotationCoding.from_real(alpha) if not isinstance(alpha, RotationCoding) else alpha
    b = RotationCoding.from_real(beta) if not isinstance(beta, RotationCoding) else beta
    # Tested prefix: quotients while the convergent denominator q is at
    # most 10^6.  q grows at least like the Fibonacci numbers, so that
    # prefix has at most 31 terms.
    q_prev, q = 0, 1
    for t in _continued_fraction(a.alpha, 31):
        if q > 10**6:
            break
        if t > 2:
            raise PreconditionUnmet("a partial quotient of alpha exceeds 2")
        q_prev, q = q, t * q + q_prev
    if abs(a.alpha - b.alpha) >= Fraction(1, 48 * n * n):
        raise PreconditionUnmet(f"|alpha - beta| is not below 1/(48*{n}^2)")
    return collect_blocks(b, n) <= collect_blocks(a, n)
