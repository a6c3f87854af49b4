"""Sieve oracle for the CRT free count, kept beside the tests that use it."""

import numpy as np

from bfree.core import BSet


def crt_free_count_sieve(bset: BSet) -> int:
    """Independent sieve count of the free residues over [0, period)."""
    free = np.ones(bset.period, dtype=bool)
    for b in bset.moduli:
        free[::b] = False
    return int(free.sum())


def coding_oracle(moduli, classes, residues, lo: int, hi: int) -> np.ndarray:
    """Bit n - lo is 1 iff (residues[k] + n) mod b_k avoids classes[k] for every k.

    Reads every position's residue directly instead of striking strided
    classes; lo and the residues may be of any size.
    """
    offsets = np.arange(hi - lo, dtype=np.int64)
    bits = np.ones(hi - lo, dtype=np.uint8)
    for b, ak, r in zip(moduli, classes, residues):
        phase = (offsets + (int(r) + lo) % b) % b
        for a in ak:
            bits[phase == a % b] = 0
    return bits
