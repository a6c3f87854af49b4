"""Cylinder probabilities and reproducible samplers for invariant measures.

The sampled measures are push-forwards of Haar measure on the odometer
of one residue system (:class:`bfree.core.Residues`, whose derived periods
are its moduli) under the system's windowed coding, optionally convolved
with an independent Bernoulli mask (keep each 1 with probability p).
p = 1 gives the plain push-forward; p = 1/2 gives the measure of maximal
entropy.  The cylinder DP takes the same system, so it is their exact law.

RNG contract v4 (``GENERATOR_ID = "splitmix64-counter-v4"``, recorded in
batch metadata).  Every random word is a pure function of (seed, stream,
index), in wrapping 64-bit arithmetic (W = 2^64).  With SplitMix64's
finalizer (Steele, Lea and Flood, OOPSLA 2014)

    mix64(z):  z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 mod W
               z = (z ^ z >> 27) * 0x94D049BB133111EB mod W
               return z ^ z >> 31

and gamma = 0x9E3779B97F4A7C15, let S(s, i) = mix64(s + (i + 1) gamma
mod W), the word i of SplitMix64 seeded with s.  Stream (f, a) has the
key S(S(seed, f), a) and its word i is S(key, i).  The families f are:

- f = 0, a = 0: the mask stream;
- f = 1, a = r: the tie stream of level r = 0, 1, ...;
- f = 2 + k, a = 0, 1, ...: the points of the k-th odometer modulus m,
  attempt a.

Coordinate mod m of sample i: word i of stream (2 + k, 0), w, gives
w mod m unless w >= W - (W mod m); a rejected slot reads word i of
stream (2 + k, 1), then (2 + k, 2), ..., so it is exactly uniform for
every m < 2^63 (larger moduli raise ValueError before any draw).  When p < 1, the mask keeps
or drops each 1 of the batch at the row-major position j = i L + n of
row i and window offset n.  At p = 1/2, j keeps iff bit j mod 64 (least
significant first) of mask word j // 64 is 1.  Any other p reads one
16-bit digit per position, four per word, least significant first:
digit D_j = mask word j // 4 >> 16 (j mod 4) mod 2^16, against
floor(p 2^16) = T.  D_j < T keeps and D_j > T drops.  A tie D_j = T
reads the base-2^64 digits of the rest x = p 2^16 - T: level r = 0,
1, ... compares word j of tie stream r with digit r, floor(x W^(r+1))
mod W.  Below keeps, above drops, and equal goes on to level r + 1,
unless x W^(r+1) is an integer: then, as at once where x = 0, the tie
drops.  So a 1 is kept with probability exactly p (Knuth and Yao,
1976): p = 0 drops every 1, and a dyadic p down to 2^-16 never reads
past the first digit.  Since no index depends on the count, a
batch of count k is the first k samples of any larger batch with the
same seed and window.  v4 changed every sampled bit of v3, whose Philox
streams were chunked by 1024 samples.

Every sampler, ``sturmian.sample_periodic_windows`` included, draws
through this one core, so one seed gives all of them the same points (a
product batch at p = 1 equals the Mirsky batch); use distinct seeds for
independent samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable

from .core import BinaryWord, BSet, CylinderSpec, Residues
from .errors import BudgetExceeded, EmptySupport, LengthMismatch, TooManyZeros
from .sieve import SAProfile, _check_window, _coding, _sieve

__all__ = [
    "GENERATOR_ID",
    "ProductMeasureSpec",
    "SampleBatch",
    "mirsky_cylinder",
    "mixed_cylinder",
    "sample_mirsky",
    "sample_product",
    "sample_generalized",
    "mask_batch",
    "squeeze",
    "embed",
    "empirical_block_distribution",
]

GENERATOR_ID = "splitmix64-counter-v4"

_MAX64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

# Words per vector pass, which bounds the temporary buffers; any split
# gives the same words, so it is not part of the contract.
DRAW = 1 << 13

# The coverage DP stores at most min(2^|zeros|, prod (m_k + 1)) states over
# the stored moduli (all when p < 1, all but the last when p = 1), m_k the
# coordinates mod b_k that strike a zero and no 1; a larger bound is
# refused before any state is built.
MAX_COVER_STATES = 1 << 20

# The coverage DP's set-up takes sum_k |classes_k| x (|ones| + |zeros|)
# steps: 9.0e6 steps, a 6000-bit target of a period-3000 block, took
# 0.5-0.9 s on a shared 2-vCPU Xeon.  A larger count is refused first.
MAX_COVER_SETUP = 1 << 24


def mirsky_cylinder(bset: BSet, ones: Iterable[int]) -> Fraction:
    """Exact probability that every position of ``ones`` carries a 1.

    Equals prod_k (1 - |A mod b_k| / b_k); zero iff the positions cover a
    full residue system modulo some modulus.
    """
    spec = CylinderSpec({n: 1 for n in ones})
    return _cylinder(bset.residue_system, spec, Fraction(1))


def mixed_cylinder(bset: BSet, spec: CylinderSpec) -> Fraction:
    """Probability of a cylinder with both 1- and 0-constraints.

    The coverage DP of :func:`_cylinder` with the single class 0 per
    modulus: exact for moduli of any size, within ``MAX_COVER_STATES``.
    """
    return _cylinder(bset.residue_system, spec, Fraction(1))


def _cylinder(residues: Residues, spec: CylinderSpec, p: Fraction) -> Fraction:
    """Exact probability of ``spec`` under the measure :func:`_sample` draws.

    A point is one uniform coordinate r_k mod each b_k; r_k strikes n iff
    (r_k + n) mod b_k is in classes[k].  Struck positions are 0, the others
    1s kept w.p. p, and a coordinate that strikes a 1 of the cylinder is
    banned.  The DP maps the mask of 0s struck so far to its number of
    unbanned coordinate tuples: a coordinate that strikes 0s ORs in their
    mask, the others count as one idle number, so no modulus is enumerated.
    An unstruck 0 is a dropped 1, so the value is
    p^|ones| * sum_state count * (1 - p)^(|zeros| - |state|) / prod_k b_k.

    At p = 1 only the full mask counts: states the later moduli cannot
    complete are dropped, and the last modulus only counts completions, by
    the coordinates that strike the lowest missing 0.  The mask bits
    (striking coordinates x |zeros|) pass the window gate before any mask
    is built; a state bound over MAX_COVER_STATES raises TooManyZeros
    before any state is built, and a set-up over MAX_COVER_SETUP steps
    raises BudgetExceeded before it runs.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    ones, zeros = spec.ones, sorted(spec.zeros)
    _check_set_up(residues, len(ones) + len(zeros))
    full = (1 << len(zeros)) - 1
    groups = []  # per modulus: the 0 indices each striking coordinate strikes, the idle count
    for b, ak in zip(residues.moduli, residues.classes):
        banned = {(a - n) % b for a in ak for n in ones}
        strike: dict[int, list[int]] = {}
        for a in ak:
            for i, z in enumerate(zeros):
                r = (a - z) % b
                if r not in banned:
                    strike.setdefault(r, []).append(i)
        groups.append((list(strike.values()), b - len(banned) - len(strike)))
    # a mask holds at most |zeros| bits; the extra column keeps the window
    # nonempty for a cylinder without 0s
    _check_window(0, len(zeros) + 1, rows=sum(len(g) for g, _ in groups))
    strikes = []
    for g, idle in groups:
        masks = []
        for indices in g:
            bits = bytearray(len(zeros) + 7 >> 3)
            for i in indices:
                bits[i >> 3] |= 1 << (i & 7)
            masks.append(int.from_bytes(bits, "little"))
        strikes.append((masks, idle))
    stored = strikes[:-1] if p == 1 else strikes
    bound = min(full + 1, math.prod(len(m) + 1 for m, _ in stored))
    if bound > MAX_COVER_STATES:
        raise TooManyZeros(
            f"{len(zeros)} zero-positions need up to {bound} cover states, "
            f"over the budget of {MAX_COVER_STATES}"
        )
    # reach[k]: the 0s that moduli k.. can still strike
    reach = [0] * (len(strikes) + 1)
    for k in range(len(strikes) - 1, -1, -1):
        reach[k] = reach[k + 1]
        for m in strikes[k][0]:
            reach[k] |= m
    states = {0: 1}
    for k, (masks, idle) in enumerate(stored):
        states = _cover_step(states, masks, idle, full ^ reach[k + 1] if p == 1 else 0)
    if p == 1 and strikes:
        masks, idle = strikes[-1]
        owners: list[list[int]] = [[] for _ in zeros]  # the last masks striking each 0
        for indices, m in zip(groups[-1][0], masks):
            for i in indices:
                owners[i].append(m)
        total = 0
        for state, count in states.items():
            missing = full ^ state
            if not missing:
                total += count * (len(masks) + idle)
            else:
                for m in owners[(missing & -missing).bit_length() - 1]:
                    if not missing & ~m:
                        total += count
        states = {full: total}
    # with p = u / v, the sum over the states times v^|zeros|, in integers
    u, v = p.numerator, p.denominator
    total = sum(
        count * (v - u) ** (len(zeros) - s.bit_count()) * v ** s.bit_count()
        for s, count in states.items()
    )
    return Fraction(u ** len(ones) * total, v ** (len(ones) + len(zeros)) * math.prod(residues.moduli))


def _check_set_up(residues: Residues, positions: int) -> None:
    """Refuse a :func:`_cylinder` set-up over MAX_COVER_SETUP steps, one per
    class and cylinder position, at least one per position, before anything is built."""
    setup = max(sum(map(len, residues.classes)), 1) * positions
    if setup > MAX_COVER_SETUP:
        raise BudgetExceeded(f"cylinder set-up of {setup} steps exceeds budget {MAX_COVER_SETUP}")


def _cover_step(states: dict[int, int], masks: list[int], idle: int, needed: int) -> dict[int, int]:
    """One modulus of the coverage DP: each striking coordinate ORs in its
    mask, the idle ones keep the state; states missing a zero of ``needed``
    (no later modulus strikes it) are dropped."""
    out: dict[int, int] = {}
    for state, count in states.items():
        if idle and state & needed == needed:
            out[state] = out.get(state, 0) + count * idle
        for m in masks:
            s = state | m
            if s & needed == needed:
                out[s] = out.get(s, 0) + count
    return out


@dataclass(frozen=True)
class ProductMeasureSpec:
    """A moduli set together with a Bernoulli keep-probability p in (0, 1]."""

    bset: BSet
    p: Fraction = Fraction(1)

    def __post_init__(self):
        p = Fraction(self.p)
        if not 0 < p <= 1:
            raise ValueError("p must lie in (0, 1]")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Sampled windows plus everything needed to regenerate them.

    ``bits`` is the read-only (count, L) uint8 block of the sampled windows,
    every row over [lo, lo + L); ``words`` gives its rows as
    :class:`BinaryWord` views, built on first use.  ``omegas`` holds the
    (count, K) odometer point behind each row (coordinates mod the sampled
    odometer's moduli); it is ``None`` for batches not drawn by a sampler.
    """

    bits: np.ndarray = field(repr=False)
    lo: int
    seed: int
    spec: dict = field(default_factory=dict)
    generator: str = GENERATOR_ID
    omegas: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def words(self) -> tuple[BinaryWord, ...]:
        return BinaryWord._views(self.bits, self.lo)

    def metadata_json(self) -> str:
        return json.dumps(
            {"schema": 1, "seed": self.seed, "generator": self.generator, "spec": self.spec}
        )


def _mix64(z: int) -> int:
    """SplitMix64's finalizer on a 64-bit Python int."""
    z = (z ^ z >> 30) * _MIX[0] & _MAX64
    z = (z ^ z >> 27) * _MIX[1] & _MAX64
    return z ^ z >> 31


def _key(seed: int, family: int, level: int) -> int:
    """Key of stream (family, level): S(S(seed, family), level)."""
    family_key = _mix64((seed + (family + 1) * _GAMMA) & _MAX64)
    return _mix64((family_key + (level + 1) * _GAMMA) & _MAX64)


def _words(key: int, index: np.ndarray) -> np.ndarray:
    """Words ``index`` (uint64) of the stream ``key``, mix64(key + (i + 1) gamma)."""
    import numpy as np
    z = index + np.uint64(1)
    z *= np.uint64(_GAMMA)
    z += np.uint64(key)
    t = z >> np.uint64(30)
    z ^= t
    z *= np.uint64(_MIX[0])
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MIX[1])
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _uniform(seed: int, family: int, m: int, count: int) -> np.ndarray:
    """int64 coordinates mod m of samples 0..count-1, points family ``family``.

    Each accepted word w gives w - (w // m) m, the exact floor-division
    remainder w mod m, built in the output slice itself, so contract v4
    is unchanged.  numpy's ``//`` by a scalar runs through libdivide and
    its ``%`` does not, so this form is several times faster (remainder
    from the quotient: Lemire, Kaser and Kurz, 2019).
    """
    import numpy as np
    out = np.empty(count, dtype=np.int64)
    excess = (1 << 64) % m  # the top ``excess`` words are rejected
    top, modulus = np.uint64(_MAX64 - excess), np.uint64(m)
    for start in range(0, count, DRAW):
        index = np.arange(start, min(count, start + DRAW), dtype=np.uint64)
        words = _words(_key(seed, family, 0), index)
        attempt, redo = 0, np.flatnonzero(words > top) if excess else ()
        while len(redo):
            attempt += 1
            words[redo] = _words(_key(seed, family, attempt), index[redo])
            redo = redo[words[redo] > top]
        # m < 2^63, so every remainder fits the int64 slot it is built in
        rem = out[start : start + len(index)].view(np.uint64)
        np.floor_divide(words, modulus, out=rem)
        rem *= modulus
        np.subtract(words, rem, out=rem)
    return out


def _sample(residues: Residues, p: Fraction, lo: int, hi: int, count: int, seed: int):
    """Read-only (count, hi - lo) uint8 bits and (count, K) int64 points.

    The package's only random draw, by the contract of the module
    docstring: the points of :func:`_uniform` mod the draw moduli m_k, the
    system's derived periods, then, when p < 1, the mask of :func:`_mask`
    over the built block.

    Pairwise coprime draw moduli m_k make the odometer cyclic, Z/P with
    P = prod m_k: row i is the all-zero point's coding shifted by the t_i
    in [0, P) with t_i == omegas[i, k] (mod m_k) (CRT; each class set is
    m_k-translation invariant mod b_k).  So when P <= count, one line,
    that coding over [lo, hi + P - 1), is the window of
    :func:`bfree.sieve._coding` and row i is its L-bit slice from t_i.
    Memory is the block plus that line's P + L - 1 bytes (and, past one
    segment, their packed eighth), and P + L - 1 <= count * L, so the line
    is within the block's budget.  With fewer rows than points, or moduli that are not
    coprime, every row is sieved.

    Both reductions, each coordinate mod m_k in :func:`_uniform` and
    each CRT sum mod P here, are exact floor-division remainders
    x - (x // m) m of nonnegative ints, so every bit of contract v4 is
    unchanged.
    """
    import numpy as np
    draw_moduli = residues.periods
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if count < 0:
        raise ValueError("count must be >= 0")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    if max(draw_moduli, default=1) >= 1 << 63:
        raise ValueError(f"odometer modulus {max(draw_moduli)} is not below 2^63")
    _check_window(lo, hi, rows=count)
    length = hi - lo
    omegas = np.empty((count, len(draw_moduli)), dtype=np.int64)
    for k, m in enumerate(draw_moduli):
        omegas[:, k] = _uniform(seed, 2 + k, m, count)
    omegas.setflags(write=False)
    period = math.prod(draw_moduli)
    if period <= count and math.lcm(*draw_moduli) == period:
        from numpy.lib.stride_tricks import as_strided
        line = _coding(residues, (0,) * len(draw_moduli), lo, hi + period - 1).bits
        # t_i by CRT in int64: the sum is below sum_k m_k * P <= P^2, and
        # P <= count <= 2^30 by the budget, so one reduction at the end, the
        # floor-division remainder of the nonnegative sum, with one scratch
        # buffer for the terms and the quotient
        phases, term = np.zeros(count, dtype=np.int64), np.empty(count, dtype=np.int64)
        for k, m in enumerate(draw_moduli):
            q = period // m
            phases += np.multiply(omegas[:, k], q * pow(q, -1, m) % period, out=term)
        np.floor_divide(phases, period, out=term)
        term *= period
        phases -= term
        # row t of the (P, L) view is line[t : t + L]; with each row one void
        # item, fancy indexing copies only the rows asked for, one item each
        # (np.take would copy the whole view first)
        windows = as_strided(line, (period, length), line.strides * 2, writeable=False)
        block = windows.view(f"V{length}")[:, 0][phases].view(np.uint8).reshape(count, length)
    else:
        block = _sieve(lo, hi, residues, omegas)
    if p != 1:
        _mask(seed, p, block.reshape(-1))
    block.setflags(write=False)
    return block, omegas


def _mask(seed: int, p: Fraction, bits: np.ndarray) -> None:
    """Keep each 1 of the 1-D uint8 ``bits`` with probability p, in place.

    Position j is the j-th of the batch: one bit of the mask stream at
    p = 1/2, one 16-bit digit otherwise, then the tie levels of the
    module docstring, DRAW mask words per pass.  A position is kept iff
    the uniform real 0.D_j U_0 U_1... (the digit, then tie words) is
    < p, so exactly with probability p.
    """
    import numpy as np
    n, key = len(bits), _key(seed, 0, 0)
    if p == Fraction(1, 2):
        for start in range(0, n, 64 * DRAW):
            size = min(64 * DRAW, n - start)
            index = np.arange(start // 64, (start + size + 63) // 64, dtype=np.uint64)
            words = _words(key, index).astype("<u8", copy=False)
            bits[start : start + size] &= np.unpackbits(
                words.view(np.uint8), count=size, bitorder="little"
            )
        return
    threshold, rest = divmod(p.numerator << 16, p.denominator)
    # a tie stays a 1 until it is settled, unless it drops at once
    below = np.less_equal if rest else np.less
    ties = []
    for start in range(0, n, 4 * DRAW):
        size = min(4 * DRAW, n - start)
        index = np.arange(start // 4, (start + size + 3) // 4, dtype=np.uint64)
        digits = _words(key, index).astype("<u8", copy=False).view("<u2")[:size]
        bits[start : start + size] &= below(digits, threshold)
        if rest:
            ties.append(start + np.flatnonzero(digits == threshold))
    pending = np.concatenate(ties) if ties else np.zeros(0, dtype=np.intp)
    pending = pending[bits[pending] == 1]
    level = 0
    while pending.size:
        digit, rest = divmod(rest << 64, p.denominator)
        words = _words(_key(seed, 1, level), pending.astype(np.uint64))
        bits[pending] = words < np.uint64(digit)
        pending = pending[words == np.uint64(digit)] if rest else pending[:0]
        level += 1


def _batch(measure: str, residues: Residues, p, lo, hi, count, seed, /, **spec):
    # The one SampleBatch builder; ``spec`` goes after the moduli.  The draw's
    # arguments are positional-only, so a spec key may be "p".
    block, omegas = _sample(residues, p, lo, hi, count, seed)
    spec = {"measure": measure, "moduli": list(residues.moduli), **spec}
    return SampleBatch(block, int(lo), seed, {**spec, "window": [lo, hi], "count": count}, omegas=omegas)


def sample_mirsky(bset: BSet, lo: int, hi: int, count: int, seed: int) -> SampleBatch:
    """Windows of odometer codings with coordinatewise-uniform base points."""
    return _batch("mirsky", bset.residue_system, Fraction(1), lo, hi, count, seed)


def sample_product(
    spec: ProductMeasureSpec, lo: int, hi: int, count: int, seed: int
) -> SampleBatch:
    """Odometer-coding windows with each 1 kept independently w.p. p.

    The mask has its own stream; with p = 1 it is skipped and the batch
    coincides with :func:`sample_mirsky`.
    """
    return _batch("product", spec.bset.residue_system, spec.p, lo, hi, count, seed, p=str(spec.p))


def sample_generalized(
    profile: SAProfile, p: Fraction, lo: int, hi: int, count: int, seed: int
) -> SampleBatch:
    """Like :func:`sample_product` over a generalized missing-residue profile.

    The base point is uniform on the profile's own odometer (residues mod
    the minimal periods b'_k).
    """
    p = ProductMeasureSpec(profile.bset, p).p
    spec = {"s": list(profile.s), "a": [sorted(ak) for ak in profile.a], "p": str(p)}
    return _batch("generalized", profile.residue_system, p, lo, hi, count, seed, **spec)


def mask_batch(base: SampleBatch, kappa: SampleBatch) -> SampleBatch:
    """Coordinatewise product of two batches over the same window.

    Composes a coding batch with an arbitrary caller-supplied mask batch;
    no ergodicity claim is made about the result, so it has no ``omegas``.
    """
    if base.bits.shape != kappa.bits.shape or base.lo != kappa.lo:
        raise LengthMismatch("batches must have one shape and one window")
    bits = base.bits & kappa.bits
    bits.setflags(write=False)
    return SampleBatch(
        bits, base.lo, base.seed, {"measure": "masked", "base": base.spec, "mask": kappa.spec}
    )


def squeeze(x: BinaryWord, z: BinaryWord) -> BinaryWord:
    """Read x along the support of z, in order.

    The result's index 0 sits at the first support position of z that is
    >= 0; support positions left of 0 land at negative indices.  This is
    the windowed stand-in for reading coordinates along a bi-infinite
    support.
    """
    if x.offset != z.offset or len(x) != len(z):
        raise LengthMismatch("squeeze requires aligned words")
    index = z.bits.nonzero()[0]
    if index.size == 0:
        raise EmptySupport("z has empty support")
    # the ones of z left of coordinate 0 are those in its first -offset bits
    negatives = int(z.bits[: max(0, -z.offset)].sum())
    return BinaryWord(x.bits[index], -negatives)


def embed(u: BinaryWord, z: BinaryWord) -> BinaryWord:
    """Place the bits of u at the support positions of z, zeros elsewhere.

    Inverse of :func:`squeeze` on the support: the result w satisfies
    w <= z and squeeze(w, z) has u's bits.
    """
    index = z.bits.nonzero()[0]
    if len(u) != index.size:
        raise LengthMismatch(
            f"u has {len(u)} bits but z has {index.size} support positions"
        )
    import numpy as np
    bits = np.zeros(len(z), dtype=np.uint8)
    bits[index] = u.bits
    return BinaryWord(bits, z.offset)


def _block_codes(block: np.ndarray, n: int) -> np.ndarray:
    """Integer code of every n-window inside a row of a (rows, L) bit block.

    Entry (r, s) reads ``block[r, s : s + n]`` as a binary number, first
    bit most significant, in the narrowest unsigned dtype that holds n
    bits, Python ints from 63 bits.  The row-major block is coded as one
    line, n 1-D passes over it, and the (rows, L - n + 1) view returned
    drops the windows that cross a row end.
    """
    import numpy as np
    rows, length = block.shape
    line = block.reshape(-1)
    starts = line.size - n + 1
    code = np.empty(line.size, np.min_scalar_type((1 << n) - 1) if n < 63 else object)
    head = code[:starts]
    head[...] = line[:starts]
    for j in range(1, n):
        head += head  # doubling: numpy vectorizes add, not a left shift of uint8
        head |= line[j : j + starts]
    return code.reshape(rows, length)[:, : length - n + 1]


def _distinct_counts(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of ``codes`` and how often each occurs.

    ``np.unique(codes, return_counts=True)`` by one sort, for unsigned and
    object codes alike, without the ``numpy.ma`` import that ``np.unique``
    costs on first use.
    """
    import numpy as np
    flat = np.sort(codes, axis=None)
    first = np.ones(flat.size, dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    starts = np.flatnonzero(first)
    return flat[starts], np.diff(starts, append=flat.size)


def empirical_block_distribution(batch: SampleBatch, n: int) -> dict[str, float]:
    """Frequencies of all n-blocks across every row and position, keys in
    ascending binary order.

    The windows inside each row are counted: by ``np.bincount`` when the
    2^n possible blocks are at most the windows, else by one sort.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not len(batch.bits):
        return {}
    if n > batch.bits.shape[1]:
        raise ValueError("n exceeds the window length")
    import numpy as np
    codes = _block_codes(batch.bits, n)
    total = codes.size
    if total >= 1 << n:
        counts = np.bincount(codes.astype(np.intp).reshape(-1), minlength=1 << n)
        codes = np.flatnonzero(counts)
        counts = counts[codes]
    else:
        codes, counts = _distinct_counts(codes)
    return {format(code, f"0{n}b"): c / total for code, c in zip(codes.tolist(), counts.tolist())}
