"""Cylinder probabilities by inclusion–exclusion over the zeros, kept beside the tests that use them."""

import math
from fractions import Fraction

from bfree.admissibility import _hit_residues
from bfree.core import BSet, CylinderSpec


def mixed_cylinder_ie(bset: BSet, spec: CylinderSpec) -> Fraction:
    """Probability of a cylinder with both 1- and 0-constraints.

    Inclusion-exclusion over subsets S of the 0-positions sums (-1)^|S| times
    the Mirsky probability of ones | S; 2^|zeros| terms.
    """
    zeros = sorted(spec.zeros)
    mods = bset.moduli
    steps = [_hit_residues([z], mods) for z in zeros]

    def free(i: int, hits: list[frozenset[int]]) -> int:
        # classes of the joint period coded 1 at the positions behind hits
        # and 0 at zeros[i:]; a full modulus stays full in every superset
        if i == len(steps) or any(len(h) == b for h, b in zip(hits, mods)):
            return math.prod(b - len(h) for h, b in zip(hits, mods))
        return free(i + 1, hits) - free(i + 1, [h | z for h, z in zip(hits, steps[i])])

    return Fraction(free(0, _hit_residues(spec.ones, mods)), bset.period)
