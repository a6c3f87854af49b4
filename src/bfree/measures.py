"""Cylinder probabilities and reproducible samplers for invariant measures.

The sampled measures are push-forwards of Haar measure on the odometer
under the windowed coding, optionally convolved with an independent
Bernoulli mask (keep each 1 with probability p).  p = 1 gives the plain
push-forward; p = 1/2 gives the measure of maximal entropy.

RNG contract v2 (``GENERATOR_ID = "philox4x64-chunked-v2"``, recorded in
batch metadata): samples are split into chunks of CHUNK = 1024.  Chunk c
draws from the counter-based generator Philox(key=(seed << 64) | c)
(Salmon et al., SC'11), a pure function of (seed, c), so chunks are
order-independent and can run in parallel.  A chunk's stream first
gives the odometer points of all CHUNK slots, one
``integers(0, m, size=CHUNK)`` per odometer modulus m in modulus order,
then, when p < 1, the mask: ``random()`` doubles for the chunk's
samples in sample order, position by position, and a 1 is kept iff its
double is < p.  Points are always drawn for whole chunks, so a batch of
count k is the first k samples of any larger batch with the same seed
and window.

Every sampler, ``sturmian.sample_periodic_windows`` included, draws
through this one core, so one seed gives all of them the same points (a
product batch at p = 1 equals the Mirsky batch); use distinct seeds for
independent samples.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .admissibility import _hit_residues
from .core import BinaryWord, BSet, CylinderSpec
from .errors import EmptySupport, LengthMismatch, TooManyZeros
from .sieve import SAProfile, _check_window, _sieve

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

GENERATOR_ID = "philox4x64-chunked-v2"

# Samples per Philox stream; part of the RNG contract.
CHUNK = 1024

# Mask doubles drawn per call, which bounds the temporary buffer; any split
# reads the same stream, so it is not part of the contract.
MASK_DRAW = 1 << 16

# Inclusion-exclusion sums 2^|zeros| terms; cap the zero-positions.
MAX_ZEROS = 24


def mirsky_cylinder(bset: BSet, ones: Iterable[int]) -> Fraction:
    """Exact probability that every position of ``ones`` carries a 1.

    Equals prod_k (1 - |A mod b_k| / b_k); zero iff the positions cover a
    full residue system modulo some modulus.
    """
    return mixed_cylinder(bset, CylinderSpec({n: 1 for n in ones}))


def mixed_cylinder(bset: BSet, spec: CylinderSpec) -> Fraction:
    """Probability of a cylinder with both 1- and 0-constraints.

    Inclusion-exclusion over subsets S of the 0-positions sums (-1)^|S| times
    the Mirsky probability of ones | S; 2^|zeros| terms, hence MAX_ZEROS.
    """
    zeros = sorted(spec.zeros)
    if len(zeros) > MAX_ZEROS:
        raise TooManyZeros(f"{len(zeros)} zero-positions exceed cap {MAX_ZEROS}")
    mods = bset.moduli
    steps = [_hit_residues([z], mods) for z in zeros]

    def free(i: int, hits: list[frozenset[int]]) -> int:
        # classes of the joint period coded 1 at the positions behind hits
        # and 0 at zeros[i:]; a full modulus stays full in every superset
        if i == len(steps) or any(len(h) == b for h, b in zip(hits, mods)):
            return math.prod(b - len(h) for h, b in zip(hits, mods))
        return free(i + 1, hits) - free(i + 1, [h | z for h, z in zip(hits, steps[i])])

    return Fraction(free(0, _hit_residues(spec.ones, mods)), bset.period)


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


@dataclass(frozen=True)
class SampleBatch:
    """Sampled windows plus everything needed to regenerate them.

    ``omegas`` holds the (count, K) odometer point behind each sampled
    word (coordinates mod the sampled odometer's moduli); it is ``None``
    for batches not drawn by a sampler.
    """

    words: tuple[BinaryWord, ...]
    seed: int
    spec: dict = field(default_factory=dict)
    generator: str = GENERATOR_ID
    omegas: np.ndarray | None = field(default=None, compare=False, repr=False)

    def metadata_json(self) -> str:
        return json.dumps(
            {"schema": 1, "seed": self.seed, "generator": self.generator, "spec": self.spec}
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("index,offset,bits\n")
        for i, w in enumerate(self.words):
            buf.write(f"{i},{w.offset},{w.to_string()}\n")
        return buf.getvalue()


def _sample(moduli, classes, draw_moduli, p: Fraction, lo: int, hi: int, count: int, seed: int):
    """Read-only (count, hi - lo) uint8 bits and (count, K) int64 points.

    The package's only random draw: chunk c of CHUNK masked codings over
    [lo, hi) reads one Philox stream keyed by (seed << 64) | c, first one
    ``integers(0, m, CHUNK)`` per odometer modulus m, then, when p < 1,
    the mask doubles of the chunk's samples in sample order.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    _check_window(lo, hi, rows=count)
    rngs = [
        np.random.Generator(np.random.Philox(key=(int(seed) << 64) | c))
        for c in range(-(-count // CHUNK))
    ]
    omegas = np.empty((len(rngs) * CHUNK, len(draw_moduli)), dtype=np.int64)
    for c, rng in enumerate(rngs):
        for k, m in enumerate(draw_moduli):
            omegas[c * CHUNK : (c + 1) * CHUNK, k] = rng.integers(0, m, size=CHUNK)
    omegas = omegas[:count]
    omegas.setflags(write=False)
    block = _sieve(lo, hi, moduli, classes, omegas)
    if p != 1:
        flat, length = block.reshape(-1), hi - lo
        for c, rng in enumerate(rngs):
            end = min(count, (c + 1) * CHUNK) * length
            for start in range(c * CHUNK * length, end, MASK_DRAW):
                stop = min(start + MASK_DRAW, end)
                flat[start:stop] &= rng.random(stop - start) < float(p)
    block.setflags(write=False)
    return block, omegas


def _batch(measure: str, moduli, classes, draw_moduli, p, lo, hi, count, seed, /, **spec):
    # The one SampleBatch builder; ``spec`` goes after the moduli.  The draw's
    # arguments are positional-only, so a spec key may be "p".
    block, omegas = _sample(moduli, classes, draw_moduli, p, lo, hi, count, seed)
    return SampleBatch(
        BinaryWord._views(block, [int(lo)] * count),
        seed,
        {"measure": measure, "moduli": list(moduli), **spec, "window": [lo, hi], "count": count},
        omegas=omegas,
    )


def sample_mirsky(bset: BSet, lo: int, hi: int, count: int, seed: int) -> SampleBatch:
    """Windows of odometer codings with coordinatewise-uniform base points."""
    mods = bset.moduli
    return _batch("mirsky", mods, [(0,)] * len(mods), mods, Fraction(1), lo, hi, count, seed)


def sample_product(
    spec: ProductMeasureSpec, lo: int, hi: int, count: int, seed: int
) -> SampleBatch:
    """Odometer-coding windows with each 1 kept independently w.p. p.

    The mask is drawn after the odometer points of the chunk, from the
    same stream; with p = 1 the draw is skipped and the batch coincides
    with :func:`sample_mirsky`.
    """
    mods = spec.bset.moduli
    return _batch(
        "product", mods, [(0,)] * len(mods), mods, spec.p, lo, hi, count, seed, p=str(spec.p)
    )


def sample_generalized(
    profile: SAProfile, p: Fraction, lo: int, hi: int, count: int, seed: int
) -> SampleBatch:
    """Like :func:`sample_product` over a generalized missing-residue profile.

    The base point is uniform on the profile's own odometer (residues mod
    the minimal periods b'_k).
    """
    p = ProductMeasureSpec(profile.bset, p).p
    spec = {"s": list(profile.s), "a": [sorted(ak) for ak in profile.a], "p": str(p)}
    mods, draw = profile.bset.moduli, profile.odometer_moduli
    return _batch("generalized", mods, profile.a, draw, p, lo, hi, count, seed, **spec)


def mask_batch(base: SampleBatch, kappa: SampleBatch) -> SampleBatch:
    """Coordinatewise product of two aligned batches.

    Composes a coding batch with an arbitrary caller-supplied mask batch;
    no ergodicity claim is made about the result.
    """
    if len(base.words) != len(kappa.words):
        raise LengthMismatch("batches must have the same number of words")
    for w, m in zip(base.words, kappa.words):
        if w.offset != m.offset or len(w) != len(m):
            raise LengthMismatch("batch windows must be aligned")
    words: tuple[BinaryWord, ...] = ()
    if base.words:
        bits = np.concatenate([w.bits for w in base.words])
        bits &= np.concatenate([m.bits for m in kappa.words])
        bits.setflags(write=False)
        ends = np.cumsum([w.bits.size for w in base.words]).tolist()
        rows = [bits[end - w.bits.size : end] for w, end in zip(base.words, ends)]
        words = BinaryWord._views(rows, [w.offset for w in base.words])
    return SampleBatch(
        words,
        base.seed,
        {"measure": "masked", "base": base.spec, "mask": kappa.spec},
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
    support = z.support
    if support.size == 0:
        raise EmptySupport("z has empty support")
    values = x.bits[support - z.offset]
    negatives = int((support < 0).sum())
    return BinaryWord(values, -negatives)


def embed(u: BinaryWord, z: BinaryWord) -> BinaryWord:
    """Place the bits of u at the support positions of z, zeros elsewhere.

    Inverse of :func:`squeeze` on the support: the result w satisfies
    w <= z and squeeze(w, z) has u's bits.
    """
    support = z.support
    if len(u) != support.size:
        raise LengthMismatch(
            f"u has {len(u)} bits but z has {support.size} support positions"
        )
    bits = np.zeros(len(z), dtype=np.uint8)
    bits[support - z.offset] = u.bits
    return BinaryWord(bits, z.offset)


def _block_codes(block: np.ndarray, n: int) -> np.ndarray:
    """Integer code of every n-window of each row of a (rows, L) bit block.

    Entry (r, s) reads ``block[r, s : s + n]`` as a binary number, first
    bit most significant: int64 below 63 bits, Python ints from there.
    """
    starts = block.shape[1] - n + 1
    bits = block.astype(np.int64 if n < 63 else object)
    code = np.zeros((len(block), starts), dtype=bits.dtype)
    for j in range(n):
        code <<= 1
        code |= bits[:, j : j + starts]
    return code


def _distinct_counts(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of ``codes`` and how often each occurs.

    ``np.unique(codes, return_counts=True)`` by one sort, for int64 and
    object codes alike, without the ``numpy.ma`` import that ``np.unique``
    costs on first use.
    """
    flat = np.sort(codes, axis=None)
    first = np.ones(flat.size, dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    starts = np.flatnonzero(first)
    return flat[starts], np.diff(starts, append=flat.size)


def empirical_block_distribution(batch: SampleBatch, n: int) -> dict[str, float]:
    """Frequencies of all n-sub-words across every word and position."""
    if n < 1:
        raise ValueError("n must be >= 1")
    by_length: dict[int, list[np.ndarray]] = {}
    for w in batch.words:
        if n > len(w):
            raise ValueError("n exceeds the window length")
        by_length.setdefault(len(w), []).append(w.bits)
    counts: dict[str, int] = {}
    for rows in by_length.values():
        codes, freqs = _distinct_counts(_block_codes(np.stack(rows), n))
        for code, c in zip(codes.tolist(), freqs.tolist()):
            key = format(code, f"0{n}b")
            counts[key] = counts.get(key, 0) + c
    total = sum(counts.values())
    return {block: c / total for block, c in counts.items()}
