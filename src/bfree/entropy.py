"""Closed-form entropy evaluations and bound checks.

All values are in bits per symbol.  Whenever a formula is a finite
rational product the exact value is carried alongside the float.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .admissibility import residue_hits
from .core import BinaryWord, BSet, crt_free_count
from .errors import BadDensityOrder, WrongWindowLength
from .sieve import SAProfile
from .sturmian import PeriodicHereditarySystem

__all__ = [
    "EntropyReport",
    "htop_bfree",
    "h_product_type",
    "htop_generalized",
    "htop_periodic_hereditary",
    "lm7_bounds",
    "crt_density_bound",
]


@dataclass(frozen=True)
class EntropyReport:
    """An entropy value with its provenance and truncation caveat."""

    bits: float
    exact: Fraction | None
    formula: str
    inputs: dict
    truncation_note: str = ""

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("entropy cannot be negative")

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "exact": str(self.exact) if self.exact is not None else None})


def _tail_note(bset: BSet) -> str:
    if bset.tail_bound == 0:
        return ""
    return (
        f"moduli truncated; omitted tail sum <= {bset.tail_bound}, value is an "
        "upper bound within that multiplicative tail factor"
    )


def htop_bfree(bset: BSet) -> EntropyReport:
    """Topological entropy of the hereditary multiple-free subshift.

    Equals prod(1 - 1/b_k) bits: the support density of the free set.
    """
    exact = Fraction(crt_free_count(bset), bset.period)
    return EntropyReport(
        float(exact), exact, "prod(1 - 1/b_k)", {"moduli": list(bset.moduli)}, _tail_note(bset)
    )


def binary_entropy(p: Fraction | float) -> float:
    p = float(p)
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def h_product_type(bset: BSet, p) -> EntropyReport:
    """Entropy of the coding measure convolved with a Bernoulli(p) mask.

    H2(p) * prod(1 - 1/b_k) bits; p = 1/2 reproduces :func:`htop_bfree`.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("p must lie strictly in (0, 1)")
    density = Fraction(crt_free_count(bset), bset.period)
    exact = density if p == Fraction(1, 2) else None
    return EntropyReport(
        binary_entropy(p) * float(density),
        exact,
        "H2(p) * prod(1 - 1/b_k)",
        {"moduli": list(bset.moduli), "p": str(p)},
        _tail_note(bset),
    )


def htop_generalized(profile: SAProfile) -> EntropyReport:
    """prod(1 - s_k/b_k) bits; degenerates to htop_bfree at s = 1."""
    exact = profile.free_density()
    return EntropyReport(
        float(exact),
        exact,
        "prod(1 - s_k/b_k)",
        {"moduli": list(profile.bset.moduli), "s": list(profile.s)},
        _tail_note(profile.bset),
    )


def htop_periodic_hereditary(block: BinaryWord) -> EntropyReport:
    """Entropy of the hereditary closure of a periodic point, |supp C|/|C| bits.

    ``block`` must be the minimal period: no proper divisor length repeats.
    """
    PeriodicHereditarySystem(block)  # raises NotMinimalPeriod unless block is minimal
    exact = Fraction(block.ones, len(block))
    return EntropyReport(
        float(exact), exact, "|supp C| / |C|", {"block": block.to_string()}
    )


def lm7_bounds(h_x_bits: float, d: float, d_prime: float) -> tuple[float, float]:
    """Sandwich for hereditary-closure entropy: [d, h_X + d'] bits.

    ``d`` and ``d_prime`` are the lower/upper Banach densities of ones; the
    closure entropy lies between them.
    """
    if not (0 <= d <= d_prime <= 1):
        raise BadDensityOrder(f"need 0 <= d <= d' <= 1, got d={d}, d'={d_prime}")
    if h_x_bits < 0:
        raise ValueError("base entropy cannot be negative")
    return (d, h_x_bits + d_prime)


def crt_density_bound(profile: SAProfile, word: BinaryWord) -> tuple[bool, Fraction, Fraction]:
    """Check one-density <= prod(1 - s_k/b_k) over one full residue period.

    Returns (holds, density, bound).  Requires a full-period window whose
    support misses at least s_k residues modulo every b_k.
    """
    period = profile.bset.period
    if len(word) != period:
        raise WrongWindowLength(f"need window of length {period}, got {len(word)}")
    for hit, b, sk in zip(residue_hits(word, profile.bset), profile.bset.moduli, profile.s):
        if b - len(hit) < sk:
            raise WrongWindowLength(
                f"support misses only {b - len(hit)} residues mod {b}, need >= {sk}"
            )
    density = Fraction(word.ones, period)
    bound = profile.free_density()
    return (density <= bound, density, bound)
