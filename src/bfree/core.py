"""Core value types: moduli sets, odometer points, binary words, cylinders.

All types are immutable after construction and safe to share between
threads.  Rationals are exact (:class:`fractions.Fraction`); bit sequences
are numpy uint8 arrays marked read-only.  numpy is imported only by the
functions that build or read those arrays, so the integer types (moduli
sets, odometer points, cylinders) load and run without it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import BudgetExceeded, EmptyWord, LengthMismatch, ModulusTooSmall, NotCoprime, NotSorted

__all__ = [
    "BSet",
    "OdometerPoint",
    "BinaryWord",
    "CylinderSpec",
    "validate_bset",
    "squarefree_family",
    "crt_free_count",
]

# squarefree_family finds its primes by trial division; 10^4 of them take
# about 45 ms on one core, 10^5 about 1.4 s.
MAX_FAMILY_SIZE = 10_000


@dataclass(frozen=True)
class BSet:
    """A finite set of pairwise-coprime moduli >= 2, sorted ascending.

    ``tail_bound`` is a declared upper bound on the reciprocal sum of any
    omitted moduli (0 for intentionally finite sets).  Build instances via
    :func:`validate_bset` or :func:`squarefree_family`.
    """

    moduli: tuple[int, ...]
    tail_bound: Fraction = Fraction(0)

    def __len__(self) -> int:
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)

    @property
    def period(self) -> int:
        """Product of all moduli (the joint residue period)."""
        return math.prod(self.moduli)

    def to_json(self) -> str:
        return json.dumps(
            {"moduli": list(self.moduli), "tail_bound": str(self.tail_bound)}
        )

    @classmethod
    def from_json(cls, text: str) -> "BSet":
        obj = json.loads(text)
        return validate_bset(obj["moduli"], Fraction(obj["tail_bound"]))


def validate_bset(moduli: Iterable[int], tail_bound=Fraction(0)) -> BSet:
    """Validate moduli and return a :class:`BSet`.

    Raises :class:`ModulusTooSmall`, :class:`NotSorted` or
    :class:`NotCoprime` when an invariant fails.
    """
    mods = tuple(int(b) for b in moduli)
    for b in mods:
        if b < 2:
            raise ModulusTooSmall(b)
    if any(mods[i] >= mods[i + 1] for i in range(len(mods) - 1)):
        raise NotSorted()
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            if math.gcd(mods[i], mods[j]) != 1:
                raise NotCoprime(i, j)
    tb = Fraction(tail_bound)
    if tb < 0:
        raise ValueError("tail_bound must be nonnegative")
    return BSet(mods, tb)


def _first_primes(count: int) -> list[int]:
    """The first ``count`` primes, each n trial-divided by the primes up to sqrt(n)."""
    primes: list[int] = []
    n = 1
    while len(primes) < count:
        n += 1
        for p in primes:
            if p * p > n:
                primes.append(n)
                break
            if not n % p:
                break
        else:
            primes.append(n)
    return primes


def squarefree_family(count: int) -> BSet:
    """The first ``count`` prime squares, with a provable tail bound.

    The omitted tail satisfies sum_{i>count} 1/p_i^2 <= sum_{m>p_count} 1/m^2
    <= 1/p_count, which is the (loose) bound recorded on the result.  A
    count over MAX_FAMILY_SIZE raises BudgetExceeded before the search.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > MAX_FAMILY_SIZE:
        raise BudgetExceeded(f"{count} prime squares exceed budget {MAX_FAMILY_SIZE}")
    primes = _first_primes(count)
    return BSet(tuple(p * p for p in primes), Fraction(1, primes[-1]))


def crt_free_count(bset: BSet) -> int:
    """Number of residues in one full period divisible by no modulus.

    Equals prod(b_k - 1) by the Chinese Remainder Theorem.
    """
    return math.prod(b - 1 for b in bset.moduli)


@dataclass(frozen=True)
class OdometerPoint:
    """A residue vector over a moduli set; residues reduced on construction."""

    bset: BSet
    residues: tuple[int, ...]

    def __post_init__(self):
        if len(self.residues) != len(self.bset.moduli):
            raise ValueError("one residue per modulus required")
        reduced = tuple(
            r % b for r, b in zip(self.residues, self.bset.moduli)
        )
        object.__setattr__(self, "residues", reduced)

    def advance(self, t: int = 1) -> "OdometerPoint":
        """Add ``t`` to every coordinate (the odometer map iterated t times)."""
        return OdometerPoint(
            self.bset, tuple(r + t for r in self.residues)
        )


class BinaryWord:
    """A finite 0/1 block with an integer base offset.

    ``bits[i]`` is the symbol at absolute coordinate ``offset + i``.  The
    support is the set of absolute coordinates carrying a 1.
    """

    __slots__ = ("offset", "bits")

    def __init__(self, bits, offset: int = 0):
        import numpy as np
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and arr.max() > 1:
            raise ValueError("bits must be 0/1")
        arr = arr.copy()
        arr.setflags(write=False)
        self.bits = arr
        self.offset = int(offset)

    @classmethod
    def _views(cls, rows, offsets) -> tuple["BinaryWord", ...]:
        # Trusted constructor for package kernels: each row is already a
        # read-only 1-D uint8 array of 0/1 and each offset an int, so both
        # are taken as they are, without a copy or a scan.
        new = object.__new__
        words = []
        for bits, offset in zip(rows, offsets):
            word = new(cls)
            word.bits, word.offset = bits, offset
            words.append(word)
        return tuple(words)

    @classmethod
    def from_string(cls, text: str, offset: int = 0) -> "BinaryWord":
        import numpy as np
        return cls(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"), offset)

    @classmethod
    def from_support(cls, support: Iterable[int], lo: int, hi: int) -> "BinaryWord":
        """Word over [lo, hi) with ones exactly at the given coordinates."""
        if hi <= lo:
            raise ValueError("empty window")
        import numpy as np
        bits = np.zeros(hi - lo, dtype=np.uint8)
        for n in support:
            if not lo <= n < hi:
                raise ValueError(f"support element {n} outside [{lo}, {hi})")
            bits[n - lo] = 1
        return cls(bits, lo)

    def __len__(self) -> int:
        return self.bits.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryWord):
            return NotImplemented
        import numpy as np
        return self.offset == other.offset and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash((self.offset, self.bits.tobytes()))

    def __repr__(self):
        return f"BinaryWord({self.to_string()!r}, offset={self.offset})"

    def to_string(self) -> str:
        return (self.bits + ord("0")).tobytes().decode("ascii")

    @property
    def support(self) -> np.ndarray:
        """Absolute coordinates of the ones, ascending: int64 while every
        coordinate of the word fits one, exact Python ints (object dtype)
        otherwise."""
        index = self.bits.nonzero()[0]
        if -(1 << 63) <= self.offset <= (1 << 63) - len(self.bits):
            return index + self.offset
        return index.astype(object) + self.offset

    @property
    def ones(self) -> int:
        import numpy as np
        return int(np.count_nonzero(self.bits))

    def shifted(self, t: int) -> "BinaryWord":
        """Same bits, offset moved by t; support moves by t exactly."""
        return BinaryWord(self.bits, self.offset + t)

    def dominated_by(self, other: "BinaryWord") -> bool:
        """Coordinatewise <= against a word with the same offset and length."""
        if self.offset != other.offset or len(self) != len(other):
            raise LengthMismatch(
                f"words not aligned: offsets {self.offset}/{other.offset}, "
                f"lengths {len(self)}/{len(other)}"
            )
        return bool((self.bits <= other.bits).all())

    def density(self) -> Fraction:
        if not len(self):
            raise EmptyWord("cannot take the density of an empty word")
        return Fraction(self.ones, len(self))

    def to_json(self) -> str:
        return json.dumps({"offset": self.offset, "bits": self.to_string()})

    @classmethod
    def from_json(cls, text: str) -> "BinaryWord":
        obj = json.loads(text)
        return cls.from_string(obj["bits"], obj["offset"])

    def pack(self) -> bytes:
        """Bit-packed dump, little-endian bit order within bytes."""
        import numpy as np
        return np.packbits(self.bits, bitorder="little").tobytes()

    @classmethod
    def unpack(cls, data: bytes, length: int, offset: int = 0) -> "BinaryWord":
        import numpy as np
        bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8), count=length, bitorder="little"
        )
        return cls(bits, offset)


@dataclass(frozen=True)
class CylinderSpec:
    """A finite map position -> bit describing a cylinder set."""

    entries: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        fixed = {int(k): int(v) for k, v in self.entries.items()}
        if any(v not in (0, 1) for v in fixed.values()):
            raise ValueError("cylinder bits must be 0 or 1")
        object.__setattr__(self, "entries", fixed)

    @property
    def ones(self) -> frozenset[int]:
        return frozenset(k for k, v in self.entries.items() if v == 1)

    @property
    def zeros(self) -> frozenset[int]:
        return frozenset(k for k, v in self.entries.items() if v == 0)
