"""Cylinder probabilities and reproducible samplers for invariant measures.

The sampled measures are push-forwards of Haar measure on the odometer
under the windowed coding, optionally convolved with an independent
Bernoulli mask (keep each 1 with probability p).  p = 1 gives the plain
push-forward; p = 1/2 gives the measure of maximal entropy.

RNG contract: each sample's stream comes from a counter-based generator
keyed by (seed, sample index), so batches are order-independent and
chunk-parallelizable.  The generator identifier is recorded in batch
metadata.
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
from .core import BinaryWord, BSet, CylinderSpec, OdometerPoint
from .errors import EmptySupport, LengthMismatch, TooManyZeros
from .sieve import SAProfile, phi_sa_window, phi_window

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

GENERATOR_ID = "philox4x64-keyed-v1"

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
    """Sampled windows plus everything needed to regenerate them."""

    words: tuple[BinaryWord, ...]
    seed: int
    spec: dict = field(default_factory=dict)
    generator: str = GENERATOR_ID

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


def _rng(seed: int, index: int) -> np.random.Generator:
    # Pure function of (seed, index): the Philox key is the 128-bit
    # concatenation seed || index.
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(index)))


def _mask(word: BinaryWord, p: Fraction, rng: np.random.Generator) -> BinaryWord:
    if p == 1:
        return word
    keep = rng.random(len(word)) < float(p)
    return BinaryWord(word.bits & keep.astype(np.uint8), word.offset)


def sample_mirsky(bset: BSet, lo: int, hi: int, count: int, seed: int) -> SampleBatch:
    """Windows of odometer codings with coordinatewise-uniform base points."""
    words = []
    for i in range(count):
        rng = _rng(seed, i)
        omega = OdometerPoint(bset, tuple(int(rng.integers(0, b)) for b in bset.moduli))
        words.append(phi_window(omega, lo, hi))
    return SampleBatch(
        tuple(words),
        seed,
        {"measure": "mirsky", "moduli": list(bset.moduli), "window": [lo, hi], "count": count},
    )


def sample_product(
    spec: ProductMeasureSpec, lo: int, hi: int, count: int, seed: int
) -> SampleBatch:
    """Odometer-coding windows with each 1 kept independently w.p. p.

    The coordinates of the kept mask are drawn after the odometer
    residues from the same per-sample stream; with p = 1 the draw is
    skipped and the batch coincides with :func:`sample_mirsky`.
    """
    bset = spec.bset
    words = []
    for i in range(count):
        rng = _rng(seed, i)
        omega = OdometerPoint(bset, tuple(int(rng.integers(0, b)) for b in bset.moduli))
        words.append(_mask(phi_window(omega, lo, hi), spec.p, rng))
    return SampleBatch(
        tuple(words),
        seed,
        {
            "measure": "product",
            "moduli": list(bset.moduli),
            "p": str(spec.p),
            "window": [lo, hi],
            "count": count,
        },
    )


def sample_generalized(
    profile: SAProfile, p: Fraction, lo: int, hi: int, count: int, seed: int
) -> SampleBatch:
    """Like :func:`sample_product` over a generalized missing-residue profile.

    The base point is uniform on the profile's own odometer (residues mod
    the minimal periods b'_k).
    """
    p = Fraction(p)
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    odo = profile.odometer_moduli
    words = []
    for i in range(count):
        rng = _rng(seed, i)
        residues = tuple(int(rng.integers(0, m)) for m in odo)
        word = phi_sa_window(profile, residues, lo, hi)
        words.append(_mask(word, p, rng))
    return SampleBatch(
        tuple(words),
        seed,
        {
            "measure": "generalized",
            "moduli": list(profile.bset.moduli),
            "s": list(profile.s),
            "a": [sorted(ak) for ak in profile.a],
            "p": str(p),
            "window": [lo, hi],
            "count": count,
        },
    )


def mask_batch(base: SampleBatch, kappa: SampleBatch) -> SampleBatch:
    """Coordinatewise product of two aligned batches.

    Composes a coding batch with an arbitrary caller-supplied mask batch;
    no ergodicity claim is made about the result.
    """
    if len(base.words) != len(kappa.words):
        raise LengthMismatch("batches must have the same number of words")
    words = []
    for w, m in zip(base.words, kappa.words):
        if w.offset != m.offset or len(w) != len(m):
            raise LengthMismatch("batch windows must be aligned")
        words.append(BinaryWord(w.bits & m.bits, w.offset))
    return SampleBatch(
        tuple(words),
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


def empirical_block_distribution(batch: SampleBatch, n: int) -> dict[str, float]:
    """Frequencies of all n-sub-words across every word and position."""
    if n < 1:
        raise ValueError("n must be >= 1")
    counts: dict[str, int] = {}
    total = 0
    for w in batch.words:
        if n > len(w):
            raise ValueError("n exceeds the window length")
        text = w.to_string()
        for i in range(len(w) - n + 1):
            block = text[i : i + n]
            counts[block] = counts.get(block, 0) + 1
            total += 1
    return {block: c / total for block, c in counts.items()}
