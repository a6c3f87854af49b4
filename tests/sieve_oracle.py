"""Sieve oracle for the CRT free count, kept beside the tests that use it."""

import numpy as np

from bfree.core import BSet


def crt_free_count_sieve(bset: BSet) -> int:
    """Independent sieve count of the free residues over [0, period)."""
    free = np.ones(bset.period, dtype=bool)
    for b in bset.moduli:
        free[::b] = False
    return int(free.sum())
