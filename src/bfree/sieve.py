"""Windowed generation of multiple-free indicator sequences.

Every window is the coding of one residue system (:class:`bfree.core.Residues`)
at one odometer point.  Every one-row window is built by :func:`_coding`,
with one of two residue sieves.

The byte kernel (:func:`_sieve`) strikes a whole (rows, L) block of codings
at once, one byte per position, as the samplers' blocks use it.  The smallest
moduli, while their product P stays at most min(2^16, L // 64), form the
wheel: their forbidden classes are struck once into a P-column block of
ones, which is P-periodic in the position and is tiled over the block.
Each class of the remaining moduli is then struck by strided assignment (a
long run of consecutive classes by one 2-D zeroing).  Work is O(L + sum
over the other moduli of s_k L / b_k) per row, plus one strike call per
class run.  A window of at most 2^20 bits is its one-row case and keeps
that byte row.

The packed kernel (:func:`_packed_sieve`) builds a longer window eight
positions to a byte, so its memory is L / 8 bytes.  The moduli up to the
same cap form groups of joint period at most the cap; each group's coding
is packed once as a periodic byte mask, and each segment of 2^20 output
bytes is the first mask tiled and the others ANDed in, one pass per group.
The few moduli above the cap clear their hits directly.  Work is
O(L / 8) per group plus O(s_k L / b_k) per modulus above the cap, so
10^8-size windows take milliseconds.
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

# The wheel's period P, and the joint period of each packed mask group, is
# at most min(_WHEEL_MAX, L // _WHEEL_REPEATS): P columns stay
# cache-resident, and tiling pays only once the window repeats the period
# many times.
_WHEEL_MAX = 2**16
_WHEEL_REPEATS = 64

# A window of more than _SEGMENT_BYTES positions is packed, in segments of
# _SEGMENT_BYTES output bytes, each masked by every group while in cache.
_SEGMENT_BYTES = 2**20

# A run of r consecutive classes mod b is zeroed as one 2-D view, at a few
# ns per period, when r * min(b, 64) >= _RUN_SPAN; below that its r strided
# strikes cost less (about 0.5 ns per position at strides under 20, 2 ns
# from 64 on, where each position is its own cache line).
_RUN_SPAN = 256

# A packed window of at least _MAPPED_BYTES gets its own private mapping, in
# whole 2 MiB huge pages, so its memory goes back to the system as soon as
# the word is freed.  From malloc, such a buffer falls below glibc's dynamic
# mmap threshold once larger arrays have been freed, and its pages then stay
# resident in the heap after it is freed.
_MAPPED_BYTES = 2**20
_HUGE_PAGE = 2**21

def _check_window(lo: int, hi: int, rows: int = 1) -> None:
    # Refuse an empty window, then a block past the budget, before any work.
    if hi <= lo:
        raise ValueError(f"empty window [{lo}, {hi})")
    if rows * (hi - lo) > MAX_WINDOW_BITS:
        raise WindowTooLarge(f"{rows} x {hi - lo} window bits exceed budget {MAX_WINDOW_BITS}")


def _packed_output(nbytes: int) -> np.ndarray:
    # Writable uint8 output of a packed window: see _MAPPED_BYTES.
    import mmap

    import numpy as np
    if nbytes < _MAPPED_BYTES or not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty(nbytes, dtype=np.uint8)
    size = -(-nbytes // _HUGE_PAGE) * _HUGE_PAGE
    mapping = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        mapping.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(mapping, dtype=np.uint8, count=nbytes)


def _plan_strikes(lo: int, moduli, classes, omegas: np.ndarray) -> list:
    """(rows, first column, stride, run) of each strike on a block over [lo, ...).

    ``omegas`` is a (rows, K) integer array of odometer coordinates; the
    strikes zero column n - lo of a row wherever (omegas[i, k] + n) mod b_k
    lies in classes[k].  Per modulus the rows are grouped by coordinate (one
    group when there is one row).  A group of all rows strikes each long run
    of consecutive classes once, from the column of its first class (see
    _RUN_SPAN); every other class is struck on its own, as a run of 1.  So
    the work is O(rows * sum_k s_k L / b_k), never O(rows * L * K).
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
        runs = []  # [first class, length] of each run of consecutive classes
        for a in sorted(ak):
            if runs and runs[-1][0] + runs[-1][1] == a:
                runs[-1][1] += 1
            else:
                runs.append([a, 1])
        for rows, r in groups:
            whole, r = isinstance(rows, slice), int(r)
            for a, run in runs:
                if run > 1 and whole and run * min(b, 64) >= _RUN_SPAN:
                    plan.append((rows, (a - r - lo) % b, b, run))
                else:
                    for i in range(run):
                        plan.append((rows, (a + i - r - lo) % b, b, 1))
    return plan


def _strike(block: np.ndarray, plan) -> None:
    """Apply a strike plan to the (rows, L) ``block``.

    A run of r classes is one 2-D zeroing: the columns from its first one,
    viewed as (periods, b), lose their first r columns; the columns of the
    run that wrap past b also lie before its first one, and the last
    partial period is cut at the block's end.
    """
    width = block.shape[1]
    for rows, first, b, run in plan:
        if run == 1:
            block[rows, first::b] = 0
            continue
        if first + run > b:
            block[:, : first + run - b] = 0
        periods = max(0, (width - first) // b)
        if periods:
            block[:, first : first + periods * b].reshape(len(block), periods, b)[:, :, :run] = 0
        block[:, first + periods * b : first + periods * b + run] = 0


def _sieve(lo: int, hi: int, residues: Residues, omegas: np.ndarray) -> np.ndarray:
    """Writable (rows, hi - lo) uint8 codings, one row per row of ``omegas``.

    The byte kernel, for sampler blocks, for windows of at most one segment
    and for the periods of the packed kernel's masks.  Bit (i, n - lo) is 1
    iff (omegas[i, k] + n) mod b_k avoids classes[k] for every k.  The wheel
    moduli are struck into a (rows, P) block, which is tiled over the output
    and then struck by the plan of the remaining moduli.
    """
    import numpy as np
    moduli, classes = residues.moduli, residues.classes
    rows, length = len(omegas), hi - lo
    _check_window(lo, hi, rows)
    cap, period, w = min(_WHEEL_MAX, length // _WHEEL_REPEATS), 1, 0
    while w < len(moduli) and period * moduli[w] <= cap:
        period *= moduli[w]
        w += 1
    out = np.empty((rows, length), dtype=np.uint8)
    if w:
        wheel = np.ones((rows, period), dtype=np.uint8)
        _strike(wheel, _plan_strikes(lo, moduli[:w], classes[:w], omegas[:, :w]))
        _tile(out, wheel, 0, first=True)
    else:
        # no wheel: a scalar fill, several times faster than tiling a
        # one-column wheel of ones over short rows
        out[...] = 1
    _strike(out, _plan_strikes(lo, moduli[w:], classes[w:], omegas[:, w:]))
    return out


def _tile(segment: np.ndarray, mask: np.ndarray, start: int, first: bool) -> None:
    # Write (first) or AND the periodic ``mask`` over the last axis of
    # ``segment``, the columns from ``start`` on of a sequence whose column
    # 0 is the mask's: a head up to the mask's next period, whole periods as
    # one (..., periods, len) view, and a tail.  Splitting the unit-stride
    # last axis is always a view, never a copy.
    size, phase, width = mask.shape[-1], start % mask.shape[-1], segment.shape[-1]
    head = min(width, size - phase)
    periods = (width - head) // size
    body = head + periods * size
    for part, pattern in (
        (segment[..., :head], mask[..., phase : phase + head]),
        (segment[..., head:body].reshape(*segment.shape[:-1], periods, size), mask[..., None, :]),
        (segment[..., body:], mask[..., : width - body]),
    ):
        if first:
            part[...] = pattern
        else:
            part &= pattern


def _packed_sieve(residues: Residues, point, lo: int, hi: int) -> np.ndarray:
    """The coding at ``point`` over [lo, hi) as (hi - lo + 7) // 8 packed bytes.

    The packed kernel, for windows longer than one segment; its bytes are in
    :meth:`BinaryWord.pack`'s format.  The moduli up to the wheel cap form
    consecutive groups whose joint period P_g is at most the cap.  The byte
    kernel strikes each group's coding over lcm(P_g, 8) positions once, and
    those bytes, packed and repeated up to the cap, are the group's mask:
    byte j of the window lies at mask byte j mod its length.  Each segment
    of _SEGMENT_BYTES output bytes is the first mask tiled, then ANDed with
    every other mask, one pass per group whatever its classes.  A modulus
    above the cap clears its hits in the segment directly, in a few numpy
    calls: each class's first hit plus whole periods, one bit each.
    """
    import numpy as np
    length = hi - lo
    _check_window(lo, hi)
    cap = min(_WHEEL_MAX, length // _WHEEL_REPEATS)
    groups, big = [], []  # [joint period, member indices] of each group; big moduli
    for k, b in enumerate(residues.moduli):
        if b > cap:
            big.append(k)
        elif groups and math.lcm(groups[-1][0], b) <= cap:
            groups[-1][0] = math.lcm(groups[-1][0], b)
            groups[-1][1].append(k)
        else:
            groups.append([b, [k]])
    omegas = np.array([point], dtype=object)
    masks = []
    for period, members in groups:
        unit = math.lcm(period, 8)
        part = Residues(tuple(residues.moduli[k] for k in members), tuple(residues.classes[k] for k in members))
        row = _sieve(lo, lo + unit, part, omegas[:, members])[0]
        # repeated to about the cap, so that even a group of period 2 or 3
        # is ANDed in rows of thousands of bytes, not of one to three
        masks.append(np.tile(np.packbits(row, bitorder="little"), max(1, cap // unit)))
    hits = []  # (step, sorted first hit of each class) of each big modulus
    for k in big:
        b, r = residues.moduli[k], int(point[k])
        firsts = sorted(f for f in ((a - r - lo) % b for a in residues.classes[k]) if f < length)
        if firsts:
            # a modulus of at least the length hits each class once at most,
            # so stepping by the length instead keeps the products in int64
            hits.append((min(b, length), np.array(firsts, dtype=np.int64)))
    out = _packed_output((length + 7) // 8)
    for start in range(0, len(out), _SEGMENT_BYTES):
        segment = out[start : start + _SEGMENT_BYTES]
        if not masks:
            segment[...] = 255
        for i, mask in enumerate(masks):
            _tile(segment, mask, start, first=not i)
        lo_bit, hi_bit = 8 * start, min(length, 8 * (start + len(segment)))
        for step, firsts in hits:
            # the periods over the segment, a few at a time: each pass
            # clears at most _SEGMENT_BYTES // 8 hits, or one period's
            chunk = max(1, _SEGMENT_BYTES // 8 // len(firsts))
            for j in range(lo_bit // step, (hi_bit - 1) // step + 1, chunk):
                where = (np.arange(j, j + chunk, dtype=np.int64) * step - lo_bit)[:, None] + firsts
                where = where[(where >= 0) & (where < hi_bit - lo_bit)]
                np.bitwise_and.at(segment, where >> 3, (~(1 << (where & 7))).astype(np.uint8))
    if length % 8:
        out[-1] &= (1 << length % 8) - 1
    return out


def _coding(residues: Residues, point, lo: int, hi: int) -> BinaryWord:
    """The coding of ``residues`` at ``point`` over [lo, hi), read-only.

    A window of at most one segment (_SEGMENT_BYTES positions) is the byte
    kernel's row, kept as the word's bits and packed on first use; a longer
    one is the packed kernel's bytes, unpacked on first use.  Object dtype
    keeps coordinates of any size.
    """
    import numpy as np
    if hi - lo <= _SEGMENT_BYTES:
        block = _sieve(lo, hi, residues, np.array([point], dtype=object))
        block.setflags(write=False)
        return BinaryWord._trusted(None, block[0], hi - lo, int(lo))
    packed = _packed_sieve(residues, point, lo, hi)
    packed.setflags(write=False)
    return BinaryWord._trusted(packed, None, hi - lo, int(lo))


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
