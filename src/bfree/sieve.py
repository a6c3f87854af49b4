"""Windowed generation of multiple-free indicator sequences.

Every window is the coding of one residue system (:class:`bfree.core.Residues`)
at one odometer point, produced by a segmented, wheel-prefilled residue
sieve.  The smallest moduli, while their product P stays at most
min(2^16, L // 64), form the wheel: their forbidden classes are struck
once into a P-column block of ones, which is P-periodic in the position.
The window is then filled one segment at a time, a column slice of whole
periods holding about 2^20 bytes: the wheel is tiled into the segment and
each class of the remaining moduli is struck there by strided assignment
while the segment is still in cache.  Only a one-row window longer than
2^20 bits is cut; a block of several rows is one segment, since cutting
it would repeat every row group's strike in each segment.  Work is
O(L + sum over the other moduli of s_k L / b_k) per row, plus one strike
call per class and segment, so 10^8-size windows stay feasible; memory
is the block itself plus one (rows, P) wheel.  One kernel strikes a
whole (rows, L) block of codings at once; a single window is its one-row
case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .admissibility import _hit_residues
from .core import BinaryWord, BSet, OdometerPoint, Residues
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

# The wheel's period P is at most min(_WHEEL_MAX, L // _WHEEL_REPEATS): P
# columns stay cache-resident, and tiling pays only once the window repeats
# the period many times.
_WHEEL_MAX = 2**16
_WHEEL_REPEATS = 64

# A one-row window is filled and struck one segment at a time: a column
# slice of whole wheel periods holding about _SEGMENT_BYTES, so every
# strike on it lands while the freshly tiled segment is still in cache.
_SEGMENT_BYTES = 2**20

def _check_window(lo: int, hi: int, rows: int = 1) -> None:
    # Refuse an empty window, then a block past the budget, before any work.
    if hi <= lo:
        raise ValueError(f"empty window [{lo}, {hi})")
    if rows * (hi - lo) > MAX_WINDOW_BITS:
        raise WindowTooLarge(f"{rows} x {hi - lo} window bits exceed budget {MAX_WINDOW_BITS}")


def _plan_strikes(lo: int, moduli, classes, omegas: np.ndarray) -> list:
    """(rows, first column, stride) of each strided strike on a block over [lo, ...).

    ``omegas`` is a (rows, K) integer array of odometer coordinates; the
    strikes zero column n - lo of a row wherever (omegas[i, k] + n) mod b_k
    lies in classes[k].  Per modulus the rows are grouped by coordinate (one
    group when there is one row), and each (group, class) is one strided
    strike, so the work is O(rows * sum_k s_k L / b_k), never O(rows * L * K).
    """
    if not len(omegas):
        return []
    import numpy as np
    plan = []
    for k, (b, ak) in enumerate(zip(moduli, classes)):
        col = omegas[:, k]
        if len(col) == 1:
            groups = [(slice(None), col[0])]
        else:
            order = np.argsort(col, kind="stable")
            ranked = col[order]
            cuts = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), len(col)]
            groups = [
                (slice(None) if stop - start == len(col) else order[start:stop], ranked[start])
                for start, stop in zip(cuts, cuts[1:])
            ]
        for rows, r in groups:
            r = int(r)
            for a in ak:
                plan.append((rows, (a - r - lo) % b, b))
    return plan


def _strike(block: np.ndarray, plan, start: int, stop: int) -> None:
    # Apply a strike plan to columns [start, stop) of the block.
    for rows, first, b in plan:
        block[rows, start + (first - start) % b : stop : b] = 0


def _sieve(lo: int, hi: int, residues: Residues, omegas: np.ndarray) -> np.ndarray:
    """Writable (rows, hi - lo) uint8 codings, one row per row of ``omegas``.

    Bit (i, n - lo) is 1 iff (omegas[i, k] + n) mod b_k avoids classes[k]
    for every k.  The wheel moduli are struck into a (rows, P) block; each
    segment of the window is tiled from it and then struck by the plan of
    the remaining moduli.
    """
    import numpy as np
    moduli, classes = residues.moduli, residues.classes
    rows, length = len(omegas), hi - lo
    _check_window(lo, hi, rows)
    cap, period, w = min(_WHEEL_MAX, length // _WHEEL_REPEATS), 1, 0
    while w < len(moduli) and period * moduli[w] <= cap:
        period *= moduli[w]
        w += 1
    wheel = None
    if w:
        wheel = np.ones((rows, period), dtype=np.uint8)
        _strike(wheel, _plan_strikes(lo, moduli[:w], classes[:w], omegas[:, :w]), 0, period)
    plan = _plan_strikes(lo, moduli[w:], classes[w:], omegas[:, w:])
    block = np.empty((rows, length), dtype=np.uint8)
    # Only a long one-row window is cut: a block of several rows would
    # repeat every row group's index-array strike in each segment.
    width = length
    if rows == 1 and length > _SEGMENT_BYTES:
        width = max(1, _SEGMENT_BYTES // period) * period
    for start in range(0, length, width):
        stop = min(start + width, length)
        if wheel is None:
            # no wheel: a scalar fill, several times faster than tiling a
            # one-column wheel of ones over short rows
            block[:, start:stop] = 1
        else:
            tiled = stop - (stop - start) % period
            # segments start on whole periods, and splitting the unit-stride
            # column axis is always a view, never a copy
            block[:, start:tiled].reshape(rows, (tiled - start) // period, period)[...] = wheel[:, None, :]
            block[:, tiled:stop] = wheel[:, : stop - tiled]
        _strike(block, plan, start, stop)
    return block


def _coding(residues: Residues, point, lo: int, hi: int) -> BinaryWord:
    # The one-row case of the sieve; object dtype keeps coordinates of any size.
    import numpy as np
    block = _sieve(lo, hi, residues, np.array([point], dtype=object))
    block.setflags(write=False)
    return BinaryWord._views(block, [int(lo)])[0]


def eta_window(bset: BSet, lo: int, hi: int) -> BinaryWord:
    """Indicator of integers in [lo, hi) divisible by no modulus."""
    return _coding(bset.residue_system, [0] * len(bset), lo, hi)


def phi_window(omega: OdometerPoint, lo: int, hi: int) -> BinaryWord:
    """Coding of an odometer point over [lo, hi).

    Position n carries 1 iff omega(k) + n is nonzero mod b_k for every k.
    The all-zero point reproduces :func:`eta_window`.
    """
    return _coding(omega.bset.residue_system, omega.residues, lo, hi)


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
        return cls(bset, (1,) * len(bset), bset.residue_system.classes)

    @cached_property
    def residue_system(self) -> Residues:
        """The residue system forbidding each a^k mod b_k."""
        return Residues(self.bset.moduli, self.a)

    @property
    def odometer_moduli(self) -> tuple[int, ...]:
        """Minimal translation period of each a^k (divides b_k)."""
        return self.residue_system.periods

    def free_density(self) -> Fraction:
        return Fraction(math.prod(b - sk for sk, b in zip(self.s, self.bset.moduli)), self.bset.period)


def phi_sa_window(
    profile: SAProfile, omega: OdometerPoint | Sequence[int], lo: int, hi: int
) -> BinaryWord:
    """Generalized coding: forbid n == a_i^k - omega(k) (mod b_k) for all k, i.

    ``omega`` may be an :class:`OdometerPoint` over the profile's moduli (a
    point over other moduli raises ``ValueError``) or a raw residue
    sequence; coordinates are used mod b'_k (any lift of omega(k) gives the
    same window because a^k is b'_k-translation invariant).
    Degenerates to :func:`phi_window` when every s_k = 1 and a^k = {0}.
    """
    if isinstance(omega, OdometerPoint) and omega.bset.moduli != profile.bset.moduli:
        raise ValueError(f"point over moduli {omega.bset.moduli}, profile over {profile.bset.moduli}")
    point = omega.residues if isinstance(omega, OdometerPoint) else tuple(omega)
    if len(point) != len(profile.bset):
        raise ValueError("one odometer coordinate per modulus required")
    return _coding(profile.residue_system, point, lo, hi)
