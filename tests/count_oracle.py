"""Transfer-DP block counts and the closed form at P | n, kept beside the tests that use them."""

import math
from itertools import product
from typing import Mapping

from bfree.admissibility import _hit_residues
from bfree.core import BSet


def block_complexity_dp(bset: BSet, n_max: int, forced: Mapping[int, int] = {}) -> list[int]:
    """Counts p_1..p_{n_max} by dynamic programming over hit residues.

    The class of a prefix is its hit residues per modulus, packed into one
    int (position residues are implicit in the step index).  ``forced``
    maps positions to the one bit every counted word carries there.
    """
    mods = bset.moduli
    # Bit offsets[k] + r of a state is set iff the prefix has a 1 at a position
    # r mod b_k.  The bit after each field stays 0, so adding ``low`` (a 1 at
    # each field's first bit) carries into ``spare`` iff some field is full.
    offsets = [sum(mods[:k]) + k for k in range(len(mods))]
    low = sum(1 << off for off in offsets)
    spare = sum(1 << (off + b) for off, b in zip(offsets, mods))
    steps = [
        sum(1 << (off + r) for off, hit in zip(offsets, _hit_residues([i], mods)) for r in hit)
        for i in range(min(n_max, bset.period))
    ]
    states: dict[int, int] = {0: 1}
    counts: list[int] = []
    for i in range(n_max):
        step = steps[i % len(steps)]
        bit = forced.get(i)
        # bit 0 at position i: state unchanged
        nxt = {} if bit == 1 else states.copy()
        # bit 1 at position i: insert i mod b_k everywhere
        for state, c in states.items() if bit != 0 else ():
            grown = state | step
            if not (grown + low) & spare:
                nxt[grown] = nxt.get(grown, 0) + c
        states = nxt
        counts.append(sum(states.values()))
    return counts


def closed_form_count(moduli, n: int) -> int:
    """p_n at P | n by inclusion–exclusion over the number s_k of classes missed mod b_k.

    p_n = sum over s_k in 1..b_k of prod_k (-1)^{s_k+1} C(b_k, s_k)
    2^{(n/P) prod_k (b_k - s_k)}: when P divides n, every residue tuple
    occurs n/P times, so the positions avoiding s_k given classes mod
    each b_k number (n/P) prod_k (b_k - s_k).
    """
    period = math.prod(moduli)
    if n % period:
        raise ValueError("closed form needs P | n")
    total = 0
    for s in product(*(range(1, b + 1) for b in moduli)):
        sign = math.prod((-1) ** (sk + 1) * math.comb(b, sk) for sk, b in zip(s, moduli))
        total += sign * 2 ** ((n // period) * math.prod(b - sk for sk, b in zip(s, moduli)))
    return total
