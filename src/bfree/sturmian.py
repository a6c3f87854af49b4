"""Rotation codings, periodic hereditary systems, and counterexample builds.

Rotation phases are tracked in 128-bit fixed point; a bit is only emitted
when the accumulated truncation error cannot flip it, otherwise
PrecisionExhausted is raised.  The coder filters on the top 32 bits of
each phase (no floats; Knuth, TAOCP vol. 2, 4.3.1): a position whose
uint32 top word lies more than a few top-word units from both endpoints'
top words gets its bit from one wrapped uint32 compare, and only the few
near an endpoint go through the big-int error rule (the filter-then-exact
pattern of Shewchuk, 1997).  A coding's n-blocks are the codes of the 2n
arcs between the circle's cut points, with no orbit scan: the exact
language for every alpha in the truncation interval and every y, or
PrecisionExhausted.  A periodic point with minimal period c is the
coding of the rotation on Z/c by its block's zero phases, so its windows
and samples come from the residue sieve (:mod:`bfree.sieve`) and its
exact maximal-entropy block frequencies from the cylinder DP of
:mod:`bfree.measures`, at any target length.  Hereditary-closure block
counts use the dominated-enumeration identity (count words lying under
some occurring block) and never materialize the closure.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product
from typing import Callable, Iterable

from . import admissibility, sieve
from .core import BinaryWord, CylinderSpec
from .errors import (
    BudgetExceeded,
    NotMinimalPeriod,
    PrecisionExhausted,
    PreconditionUnmet,
    StateSpaceTooLarge,
)
from .measures import _check_set_up, _cylinder, _sample

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
# sturmian_window filters on the top word of a phase: its top 32 bits
_TOP = 32
_WORD = 1 << _TOP
_DROP = _BITS - _TOP

# Positions per pass of the sturmian_window filter.  A pass's temporaries
# are 2^14 uint32 top words (64 KB) or bools: they stay in L2 and under
# glibc's 128 KB mmap threshold, so each pass reuses freed heap memory
# where a larger one would map, fault in and unmap fresh pages.
_CHUNK = 1 << 14

# Stages transitive_closure_point runs before giving up on reaching length.
MAX_STAGES = 64

# hereditary_closure_count enumerates at most 2^MAX_DOMINATED_BITS dominated words.
MAX_DOMINATED_BITS = 24


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


def sturmian_window(coding: RotationCoding, lo: int, hi: int) -> BinaryWord:
    """Exact coding bits over [lo, hi).

    alpha and y are both truncated, by less than one unit each (one unit
    = 2^-128), so the true phase at step n lies within |n| + 1 units of
    the computed one: above it by less than n + 1 for n >= 0, and for
    n < 0 below it by less than |n| or above it by less than 1.  A bit is
    emitted only when no interval endpoint falls strictly inside that
    range, nor, for n < 0, exactly on the computed phase; otherwise
    :class:`PrecisionExhausted` is raised, at the first such n.

    The computed phase P(n) = (y + n*alpha) mod 2^128 is filtered on its
    top word T = P >> 96, as uint32, in chunks of ``_CHUNK`` positions.
    Within a chunk from s, T' = (P(s) >> 96) + floor(i*alpha_top / 2^32)
    mod 2^32 at i = n - s, where alpha_top is alpha's top 64 bits; the low
    bits it drops carry at most 1 from i*alpha and 1 from the sum, so
    T' <= T <= T' + 2 (mod 2^32).  With e_a, e_b the top words of
    ceil(a 2^128) and ceil(b 2^128), a T that equals neither gives the bit
    (T - e_a) mod 2^32 < e_b - e_a.  A position is near an endpoint when
    T' lies within margin = ((max |n| + 1) >> 96) + 3 top-word units of
    e_a or e_b; every other position has neither top word among T' ..
    T' + 2, so the compare on T' gives its bit, and it lies more than
    max |n| + 1 units from both exact endpoints, so the error rule cannot
    fire.  Near positions take the big-int rule above, in ascending n, so
    the first PrecisionExhausted is the same as a position-by-position
    scan's.  Raises :class:`WindowTooLarge` before any allocation when
    the window exceeds ``sieve.MAX_WINDOW_BITS``.
    """
    import numpy as np
    sieve._check_window(lo, hi)
    # endpoint positions as exact fractions of the circle, cross-multiplied
    ends = [(f.numerator * _MOD, f.denominator) for f in coding.interval]
    thresholds = [-(-num // den) for num, den in ends]
    # The thresholds' top words e, in [0, 2^32]; an exact endpoint x with
    # ceil(x) >> 96 = e lies in (e 2^96 - 1, (e + 1) 2^96).  A far T',
    # with (T' - e) mod 2^32 in [margin + 1, 2^32 - margin - 1], has its
    # true T at D = (T - e) mod 2^32 in [margin + 1, 2^32 - margin + 1]:
    # never e, and P - x exceeds (D - 1) 2^96 >= margin 2^96 while x - P
    # exceeds (2^32 - D - 1) 2^96 - 1 >= (margin - 2) 2^96 - 1, which is
    # at least max |n| + 1 for margin = ((max |n| + 1) >> 96) + 3.
    e_a, e_b = (t >> _DROP for t in thresholds)
    width = e_b - e_a  # 2^32 only when a < 2^-32 and b = 1: far bits are all 1
    margin = ((max(abs(lo), abs(hi - 1)) + 1) >> _DROP) + 3
    span = np.uint32(2 * margin) if 2 * margin < _WORD else None  # None: all near
    # floor(i * alpha_top / 2^32) mod 2^32 is bits 32..63 of the wrapping
    # uint64 product i * alpha_top
    step = np.arange(min(_CHUNK, hi - lo), dtype=np.uint64)
    step *= np.uint64(coding.alpha_fixed >> 64)
    step >>= np.uint64(_TOP)
    step = step.astype(np.uint32)
    bits = np.empty(hi - lo, dtype=np.uint8)
    for start in range(lo, hi, _CHUNK):
        size = min(_CHUNK, hi - start)
        top = (coding.y_fixed + start * coding.alpha_fixed) % _MOD >> _DROP
        d = step[:size] + np.uint32((top - e_a) % _WORD)  # T' - e_a
        out = bits[start - lo : start - lo + size]
        if width == _WORD:
            out[:] = 1
        else:
            np.less(d, np.uint32(width), out=out)
        if span is None:
            near = np.ones(size, dtype=bool)
        else:
            d += np.uint32(margin)
            near = d <= span
            d -= np.uint32(width % _WORD)  # T' - e_b + margin
            near |= d <= span
        for j in np.flatnonzero(near).tolist():
            out[j] = _exact_bit(coding, start + j, ends, thresholds)
    bits.setflags(write=False)
    return BinaryWord._views([bits], [int(lo)])[0]


def collect_blocks(coding: RotationCoding, n: int) -> set[str]:
    """The n-blocks of the coding: its exact language, the same for every y.

    Bit k of the block at phase x flips only at the cuts a - k alpha and
    b - k alpha (k < n), so the blocks are the codes of the at most 2n arcs
    between cuts (Rote, J. Number Theory, 1994).  The computed cuts
    (ceil(e 2^128) - k A) mod 2^128, A = alpha_fixed, are sorted; the block
    at the first takes n big-int steps, and each later cut flips its bit k.
    For every alpha' in [A, A + 1) 2^-128 a true cut lies less than k + 1
    <= n units below its computed one, so :class:`PrecisionExhausted` is
    raised when the smallest gap is at most n + 1 units (an arc of at most
    one unit); otherwise the arcs keep their order and codes, and a dense
    orbit visits each.  An orbit of p/q steps 2^128/q units: it visits each
    arc between cuts of one endpoint, a multiple of 1/q long, and, if q >
    2^128/L, each arc between cuts of a and b, longer than L = h - n for h
    their smallest gap.  A p/q with q <= 2^128/L in [A, A + 1] 2^-128 (the
    best approximation to the midpoint finds it) raises PrecisionExhausted.
    """
    sieve._check_window(0, n, 2 * n)  # the 2n x n output bits
    if coding.interval == (0, 1):  # each a-cut is a b-cut, and every bit is 1
        return {"1" * n}
    A = coding.alpha_fixed
    t_a, t_b = (-(-f.numerator * _MOD // f.denominator) for f in coding.interval)
    # (point, endpoint, k), and each cut paired with the next one around the circle
    cuts = sorted(((t - k * A) % _MOD, e, k) for e, t in enumerate((t_a, t_b)) for k in range(n))
    ring = list(zip(cuts, cuts[1:] + [(cuts[0][0] + _MOD, *cuts[0][1:])]))
    gap = min(y[0] - x[0] for x, y in ring)
    if gap <= n + 1:
        raise PrecisionExhausted(f"cut points {gap} units apart at n={n}")
    mixed = min(y[0] - x[0] for x, y in ring if x[1] != y[1])
    near = Fraction(2 * A + 1, 2 * _MOD).limit_denominator(_MOD // (mixed - n))
    if A <= near * _MOD <= A + 1:
        raise PrecisionExhausted(f"alpha may be {near}, whose orbit can miss an arc at n={n}")
    first = sum(1 << (n - 1 - k) for k in range(n) if t_a <= (cuts[0][0] + k * A) % _MOD < t_b)
    codes = accumulate((1 << (n - 1 - k) for _, _, k in cuts[1:]), operator.xor, initial=first)
    return {format(code, f"0{n}b") for code in set(codes)}


def rotation_complexity(coding: RotationCoding, n_max: int) -> list[int]:
    """Exact counts of distinct n-blocks for n = 1..n_max: the n-prefixes of
    the n_max-blocks, whose certificate holds for every n <= n_max."""
    blocks = collect_blocks(coding, n_max)
    return [len({block[:n] for block in blocks}) for n in range(1, n_max + 1)]


def _dominated_masks(block: str) -> Iterable[int]:
    masks = [0]
    for p in (i for i, c in enumerate(block) if c == "1"):
        masks += [m | (1 << p) for m in masks]
    return masks


def hereditary_closure_count(blocks: Iterable[str]) -> int:
    """Number of words dominated by at least one of the given blocks.

    It enumerates 2^ones words per block, so it raises StateSpaceTooLarge
    up front when their sum exceeds 2^``MAX_DOMINATED_BITS``.  Blocks other
    than 0/1 strings of one length raise ValueError.
    """
    blocks = list(blocks)
    if sum(1 << block.count("1") for block in blocks) > 1 << MAX_DOMINATED_BITS:
        raise StateSpaceTooLarge(f"dominated words of the blocks exceed budget 2^{MAX_DOMINATED_BITS}")
    if len({len(block) for block in blocks}) > 1 or not set("".join(blocks)) <= {"0", "1"}:
        raise ValueError("blocks must be 0/1 strings of one length")
    return len(set().union(*map(_dominated_masks, blocks)))


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

    The block must be its own minimal period c.  The periodic point is
    the sieve coding of the rotation on Z/c that forbids the block's zero
    phases, {(i + offset) mod c : bit i of the block is 0}; that zero set
    is computed once, and the block is minimal iff c is its minimal
    translation period.
    """

    block: BinaryWord
    _zeros: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = len(self.block)
        if c == 0:
            raise NotMinimalPeriod("empty block")
        offset, bits = self.block.offset, self.block.bits.tolist()
        zeros = frozenset((i + offset) % c for i, bit in enumerate(bits) if not bit)
        d = admissibility.minimal_translation_period(zeros, c)
        if d < c:
            raise NotMinimalPeriod(f"block repeats with period {d} < {c}")
        object.__setattr__(self, "_zeros", zeros)

    def window(self, lo: int, hi: int) -> BinaryWord:
        """The periodic concatenation restricted to [lo, hi)."""
        return sieve._coding((len(self.block),), (self._zeros,), (0,), lo, hi)


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
    mask on the ones: the cylinder of the target's bits under the coverage
    DP of :mod:`bfree.measures`, with modulus c and the block's zero
    phases as classes.  Any target length is exact; the window gate, the
    set-up budget (``measures.MAX_COVER_SETUP``, checked before the
    per-position cylinder is built) and the DP's state budget
    (``measures.MAX_COVER_STATES``) bound the work.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    sieve._check_window(0, len(target))
    _check_set_up((system._zeros,), len(target))
    spec = CylinderSpec(dict(enumerate(target.bits.tolist())))
    return _cylinder((len(system.block),), (system._zeros,), spec, p)


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
    c = len(system.block)
    return _sample((c,), (system._zeros,), (c,), p, 0, length, count, seed)[0]


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
    caps.  A zero run is built only up to the bits still missing, so the
    work and memory stay O(length) however small h_bits is.  Raises
    :class:`BudgetExceeded` when ``MAX_STAGES`` stages fall short of it.
    """
    if length == 0:
        return BinaryWord([])
    sieve._check_window(0, length)
    if h_bits <= 0:
        raise ValueError("h_bits must be positive")
    L = math.ceil(1 / h_bits)
    pieces: list[str] = []
    missing = length

    def zeros(n: int) -> str:
        # the zero run after an n-bit block, cut to the bits still missing
        return "0" * min(L * n, missing)

    def stages() -> Iterable[str]:
        for block in blocks_of(n1):
            yield block
            yield zeros(n1)
        for _ in range(MAX_STAGES):
            prefix = "".join(pieces)  # every piece yielded so far
            n = len(prefix)
            yield zeros(n)
            for block in blocks_of(n):
                yield block
                yield zeros(n)
            # dominated words of the prefix, lexicographically: free choice at
            # each support position, leftmost bit most significant
            ones = [i for i, ch in enumerate(prefix) if ch == "1"]
            word = list(prefix)
            for choice in product("01", repeat=len(ones)):
                for pos, bit in zip(ones, choice):
                    word[pos] = bit
                yield "".join(word)
                yield zeros(n)

    for piece in stages():
        pieces.append(piece)
        missing -= len(piece)
        if missing <= 0:
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
    import numpy as np
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
        j = k - 1 - first
        kept = zeroed[j] if 0 <= j < len(zeroed) else None
        zeroed[j % P :: P] = True
        if kept is not None:
            zeroed[j] = kept  # block k - 1 is not zeroed by its own product
    # the window copied into rows of whole blocks, from lo % c into the first
    rows = np.empty((len(zeroed), c), dtype=np.uint8)
    bits = rows.reshape(-1)[lo % c : lo % c + (hi - lo)]
    bits[:] = word.bits
    np.copyto(rows, 0, where=zeroed[:, None])
    bits.setflags(write=False)
    return BinaryWord._views([bits], [int(lo)])[0]


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
