"""Per-bit big-int rotation coder, kept beside the tests that use it."""

import numpy as np

from bfree.core import BinaryWord
from bfree.errors import PrecisionExhausted

_MOD = 1 << 128


def sturmian_window_loop(coding, lo: int, hi: int) -> BinaryWord:
    """Coding bits over [lo, hi), one big-int phase per position.

    The phase at n is within |n| + 1 units (2^-128 each) of the computed
    one, so a bit is emitted only when no endpoint lies strictly inside
    that range, nor, for n < 0, exactly on the computed phase; otherwise
    PrecisionExhausted is raised at the first such n.
    """
    if hi <= lo:
        raise ValueError("empty window")
    a, b = coding.interval
    # endpoint positions as exact fractions of the circle, cross-multiplied
    ends = [(f.numerator * _MOD, f.denominator) for f in (a, b)]
    bits = np.empty(hi - lo, dtype=np.uint8)
    for i, n in enumerate(range(lo, hi)):
        phase = (coding.y_fixed + n * coding.alpha_fixed) % _MOD
        err = abs(n) + 1
        for num, den in ends:
            # cyclic distance from phase to the endpoint, in units/den
            delta = (phase * den - num) % (_MOD * den)
            dist = min(delta, _MOD * den - delta)
            if dist < err * den and (dist > 0 or n < 0):
                raise PrecisionExhausted(
                    f"phase at n={n} within {err} units of an interval endpoint"
                )
        inside = (
            phase * a.denominator >= a.numerator * _MOD
            and phase * b.denominator < b.numerator * _MOD
        )
        bits[i] = 1 if inside else 0
    return BinaryWord(bits, lo)
