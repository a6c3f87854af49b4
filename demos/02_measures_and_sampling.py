"""Exact cylinder probabilities versus sampled frequencies, and the
squeeze/embed correspondence between a hereditary system and the full shift.

Run with: python3 demos/02_measures_and_sampling.py
"""

from fractions import Fraction

import numpy as np

from bfree import (
    BinaryWord,
    ProductMeasureSpec,
    embed,
    h_product_type,
    htop_bfree,
    mirsky_cylinder,
    sample_mirsky,
    sample_product,
    squeeze,
    validate_bset,
)

bset = validate_bset([2, 3])

# the push-forward of Haar measure gives product formulas for cylinders
for pattern in [{0}, {0, 2}, {0, 2, 4}]:
    exact = mirsky_cylinder(bset, pattern)
    print(f"P(ones at {sorted(pattern)}) = {exact} = {float(exact):.5f}")

batch = sample_mirsky(bset, 0, 6, 50000, seed=3)
freq = np.mean(batch.bits[:, 0] & batch.bits[:, 2])
print(f"sampled frequency of ones at {{0, 2}}: {freq:.5f}")

# independent coin-thinning on top of the structural sequence
spec = ProductMeasureSpec(bset, Fraction(1, 2))
thinned = sample_product(spec, 0, 6, 5, seed=0)
print("\nfive thinned windows:", [w.to_string() for w in thinned.words])
print("metadata:", thinned.metadata_json())

print("\ntopological entropy:", htop_bfree(bset).exact, "bits")
print("entropy at p = 1/2:", h_product_type(bset, Fraction(1, 2)).exact, "bits")

# reading a word along a support and writing it back is the identity
z = BinaryWord.from_string("0101101")
u = BinaryWord.from_string("1011")
w = embed(u, z)
print(f"\nembed({u.to_string()}, {z.to_string()}) = {w.to_string()}")
print("squeeze back:", squeeze(w, z).to_string())
