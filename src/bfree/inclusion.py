"""Subshift inclusion and equality from moduli arithmetic, with witnesses.

The arithmetic criterion: the free subshift of A is contained in that of B
iff every modulus of B is divisible by some modulus of A.  Verdicts and
witnesses come from that criterion alone.  :func:`word_level_includes`
decides the same question by a bounded search for a separating word,
without divisibility; it is an independent oracle that the tests check
the criterion against, and no other function here calls it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, product

from . import sieve
from .core import BinaryWord, BSet, OdometerPoint, crt_free_count
from .errors import DivisiblePrecondition, NotCoprimeToC, SearchBudgetExceeded
from .sieve import phi_window

__all__ = [
    "includes",
    "equality",
    "construct_admissible",
    "inclusion_witness",
    "word_level_includes",
    "density_estimate",
]

# Combinatorial budget for the word-level oracle: product over A-moduli of
# b (reserved-residue combinations).
MAX_ORACLE_COMBOS = 10**6


def includes(bset_a: BSet, bset_b: BSet) -> bool:
    """True iff the free subshift of ``bset_a`` sits inside that of ``bset_b``.

    Holds exactly when every modulus of B is a multiple of some modulus of
    A: divisibility pushes every A-free pattern inside the B-free ones.
    """
    return all(any(bp % b == 0 for b in bset_a.moduli) for bp in bset_b.moduli)


def equality(bset_a: BSet, bset_b: BSet) -> bool:
    """True iff the two subshifts coincide, i.e. the moduli lists are equal.

    Coprimality within each set forces mutual inclusion to collapse to
    literal equality.
    """
    return bset_a.moduli == bset_b.moduli


def construct_admissible(small_moduli, b_prime: int) -> set[int]:
    """Set of b' integers admissible for the small moduli, full mod b'.

    A = {i + e_i * b' : i = 1..b'} with e_i the product of the small moduli
    not dividing i (1 if all divide i).  Every small modulus misses residue
    0 on A, while A mod b' runs through all of Z/b'.  The largest element
    is b' * (1 + prod small), so the word over [0, max + 1) has length
    b' * (1 + prod small) + 1; :class:`WindowTooLarge` is raised before
    the loop when that length exceeds ``sieve.MAX_WINDOW_BITS``.
    """
    small = tuple(int(m) for m in small_moduli)
    if any(math.gcd(a, b) != 1 for a, b in combinations(small, 2)):
        raise ValueError("small moduli must be pairwise coprime")
    b_prime = int(b_prime)
    if b_prime < 2:
        raise ValueError("b_prime must be >= 2")
    for m in small:
        if b_prime % m == 0:
            raise DivisiblePrecondition(f"{m} divides {b_prime}")
    sieve._check_window(0, b_prime * (1 + math.prod(small)) + 1)
    out = set()
    for i in range(1, b_prime + 1):
        e = math.prod(m for m in small if i % m != 0)
        out.add(i + e * b_prime)
    return out


@lru_cache(maxsize=None)
def _separating_modulus(moduli_a: tuple[int, ...], b_prime: int) -> bool:
    """Can an A-admissible support cover all residues mod b_prime?

    Reserve one missing residue m_j per A-modulus; a support avoiding
    every m_j stays admissible however large it grows, so coverage is
    decided per residue class r mod b_prime: does some n == r (mod
    b_prime) avoid all the m_j?  The congruence n == m_j (mod a_j)
    restricted to the class r is an arithmetic progression in the class
    parameter t with modulus a_j/gcd(a_j, b_prime) (active only when
    gcd | m_j - r); progressions with pairwise coprime moduli >= 2 never
    cover, so the class is infeasible iff some active modulus is 1.
    """
    if math.prod(moduli_a) > MAX_ORACLE_COMBOS:
        raise SearchBudgetExceeded(
            f"reserved-residue combinations {math.prod(moduli_a)} exceed budget"
        )
    gs = [math.gcd(a, b_prime) for a in moduli_a]
    # a == g and g | m - r: every n == r (mod b') also has n == m (mod a)
    return any(
        all((m - r) % g or a != g for r in range(b_prime) for m, a, g in zip(reserved, moduli_a, gs))
        for reserved in product(*(range(a) for a in moduli_a))
    )


def word_level_includes(bset_a: BSet, bset_b: BSet) -> bool:
    """Oracle for :func:`includes` that never consults divisibility.

    True iff no finite A-admissible support covers a full residue system
    modulo any B-modulus.
    """
    return not any(_separating_modulus(bset_a.moduli, bp) for bp in bset_b.moduli)


def inclusion_witness(bset_a: BSet, bset_b: BSet) -> BinaryWord | None:
    """A word admissible for A but not for B, or None when A is included.

    One pass looks for the first B-modulus b' that no A-modulus divides;
    there is none exactly when :func:`includes` holds, and then the answer
    is None.  Otherwise the witness support is the explicit b'-covering
    construction of :func:`construct_admissible`: it misses residue 0 of
    every A-modulus and covers Z/b'.  The word has length
    b' * (1 + prod A) + 1, under the budget that
    :func:`construct_admissible` enforces.
    """
    b_prime = next(
        (bp for bp in bset_b.moduli if all(bp % b != 0 for b in bset_a.moduli)), None
    )
    if b_prime is None:
        return None
    support = construct_admissible(bset_a.moduli, b_prime)
    return BinaryWord.from_support(support, 0, max(support) + 1)


def density_estimate(bset: BSet, c: int, r: int, horizon: int) -> float:
    """Empirical density of s in [1, horizon] with s*c + r free of all moduli.

    Converges to prod(1 - 1/b_k) when gcd(c, b_k) = 1 for all k, and
    equals it at horizons that are multiples of the joint period P.  With
    c invertible mod b_k, b_k divides s*c + r for exactly one class
    s == -r c^-1 (mod b_k), so the count is a sieve over s in exact integer
    arithmetic: no product s*c + r is formed, and c, r and the moduli may
    have any size.  That coding is P-periodic in s, and the moduli are
    coprime, so each period holds exactly prod(b_k - 1) ones
    (:func:`crt_free_count`).  With horizon = qP + t the count is q times
    that plus the ones of the sieved first t bits, and nothing is sieved
    when t = 0; the count is the exact count over [1, horizon], at any
    horizon.  Raises :class:`WindowTooLarge`, before any work, when the tail
    t exceeds ``sieve.MAX_WINDOW_BITS``.
    """
    for b in bset.moduli:
        if math.gcd(c, b) != 1:
            raise NotCoprimeToC(f"gcd({c}, {b}) != 1")
    if horizon < bset.period:
        raise ValueError("horizon must be at least the joint period")
    q, t = divmod(horizon, bset.period)
    if not t:
        return q * crt_free_count(bset) / horizon
    sieve._check_window(1, 1 + t)
    # phi_window strikes s == -omega(k), i.e. omega(k) = r c^-1 (mod b_k)
    omega = OdometerPoint(bset, tuple(r * pow(c, -1, b) for b in bset.moduli))
    return (q * crt_free_count(bset) + phi_window(omega, 1, 1 + t).ones) / horizon
