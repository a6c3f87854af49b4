"""Windowed generation of multiple-free indicator sequences.

Windows are produced by a segmented residue sieve: allocate the window as
ones, then strike each forbidden residue class by strided assignment.
Work is O(sum window/b_k), so 10^8-size windows stay feasible.  One
kernel strikes a whole (rows, L) block of codings at once; a single
window is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .admissibility import _hit_residues, minimal_translation_period
from .core import BinaryWord, BSet, OdometerPoint
from .errors import WindowTooLarge

__all__ = [
    "MAX_WINDOW_BITS",
    "SAProfile",
    "eta_window",
    "phi_window",
    "phi_sa_window",
]

# Memory budget for the bits of one window or one batch of windows.
MAX_WINDOW_BITS = 2**30


def _window(lo: int, hi: int, rows: int = 1) -> np.ndarray:
    # A (rows, hi - lo) block of ones, refused before allocation past the budget.
    if hi <= lo:
        raise ValueError(f"empty window [{lo}, {hi})")
    if rows * (hi - lo) > MAX_WINDOW_BITS:
        raise WindowTooLarge(f"{rows} x {hi - lo} window bits exceed budget {MAX_WINDOW_BITS}")
    return np.ones((rows, hi - lo), dtype=np.uint8)


def _strike_rows(block: np.ndarray, lo: int, moduli, classes, omegas: np.ndarray) -> None:
    """Zero ``block[i, n - lo]`` wherever (omegas[i, k] + n) mod b_k lies in classes[k].

    ``block`` is a (rows, L) uint8 array of ones over [lo, lo + L) and
    ``omegas`` a (rows, K) integer array of odometer coordinates.  Per
    modulus the rows are grouped by coordinate, and each (group, class)
    is one strided assignment, so the work is O(rows * sum_k s_k L / b_k)
    and never O(rows * L * K).
    """
    if not len(block):
        return
    for k, (b, ak) in enumerate(zip(moduli, classes)):
        col = omegas[:, k]
        order = np.argsort(col, kind="stable")
        ranked = col[order]
        cuts = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), len(col)]
        for start, stop in zip(cuts, cuts[1:]):
            rows = slice(None) if stop - start == len(col) else order[start:stop]
            r = int(ranked[start])
            for a in ak:
                block[rows, (a - r - lo) % b :: b] = 0


def _coding(moduli, classes, residues, lo: int, hi: int) -> BinaryWord:
    # The one-row case of the kernel; object dtype keeps coordinates of any size.
    block = _window(lo, hi)
    _strike_rows(block, lo, moduli, classes, np.array([residues], dtype=object))
    block.setflags(write=False)
    return BinaryWord._views(block, [int(lo)])[0]


def eta_window(bset: BSet, lo: int, hi: int) -> BinaryWord:
    """Indicator of integers in [lo, hi) divisible by no modulus."""
    return _coding(bset.moduli, [(0,)] * len(bset), [0] * len(bset), lo, hi)


def phi_window(omega: OdometerPoint, lo: int, hi: int) -> BinaryWord:
    """Coding of an odometer point over [lo, hi).

    Position n carries 1 iff omega(k) + n is nonzero mod b_k for every k.
    The all-zero point reproduces :func:`eta_window`.
    """
    mods = omega.bset.moduli
    return _coding(mods, [(0,)] * len(mods), omega.residues, lo, hi)


@dataclass(frozen=True)
class SAProfile:
    """Per-modulus missing-residue data (s_k, a^k) for generalized codings.

    ``a[k]`` is a set of s_k distinct residues mod b_k.  The profile's own
    odometer runs over Z/b'_k with b'_k the minimal translation period of
    a^k, since the coding only depends on omega(k) mod b'_k.
    """

    bset: BSet
    s: tuple[int, ...]
    a: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not len(self.bset) == len(self.s) == len(self.a):
            raise ValueError("s and a must have one entry per modulus")
        reduced = []
        for sk, ak, b in zip(self.s, self.a, self.bset.moduli):
            if not 1 <= sk <= b - 1:
                raise ValueError(f"s must lie in [1, {b - 1}], got {sk}")
            (rk,) = _hit_residues(ak, (b,))
            if len(rk) != sk:
                raise ValueError("a^k must contain exactly s_k distinct residues")
            reduced.append(rk)
        object.__setattr__(self, "a", tuple(reduced))
        object.__setattr__(self, "s", tuple(int(x) for x in self.s))

    @classmethod
    def plain(cls, bset: BSet) -> "SAProfile":
        """The degenerate profile s_k = 1, a^k = {0} (plain free numbers)."""
        n = len(bset)
        return cls(bset, (1,) * n, (frozenset([0]),) * n)

    @property
    def odometer_moduli(self) -> tuple[int, ...]:
        """Minimal translation period of each a^k (divides b_k)."""
        return tuple(
            minimal_translation_period(ak, b) for ak, b in zip(self.a, self.bset.moduli)
        )

    def free_density(self) -> Fraction:
        return math.prod(
            (Fraction(b - sk, b) for sk, b in zip(self.s, self.bset.moduli)),
            start=Fraction(1),
        )


def phi_sa_window(
    profile: SAProfile, omega: OdometerPoint | Sequence[int], lo: int, hi: int
) -> BinaryWord:
    """Generalized coding: forbid n == a_i^k - omega(k) (mod b_k) for all k, i.

    ``omega`` may be an :class:`OdometerPoint` over the full moduli or a raw
    residue sequence; coordinates are used mod b'_k (any lift of omega(k)
    gives the same window because a^k is b'_k-translation invariant).
    Degenerates to :func:`phi_window` when every s_k = 1 and a^k = {0}.
    """
    residues = omega.residues if isinstance(omega, OdometerPoint) else tuple(omega)
    if len(residues) != len(profile.bset):
        raise ValueError("one odometer coordinate per modulus required")
    return _coding(profile.bset.moduli, profile.a, residues, lo, hi)
