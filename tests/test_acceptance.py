"""End-to-end acceptance checks, one per stated criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all).
Randomized checks use frozen seeds recorded inline.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bfree.admissibility import (
    block_complexity,
    entropy_from_complexity,
    spectrum_profile,
)
from bfree.core import BinaryWord, CylinderSpec, OdometerPoint, crt_free_count, validate_bset
from bfree.entropy import h_product_type, htop_bfree
from bfree.inclusion import construct_admissible, includes, word_level_includes
from bfree.measures import (
    ProductMeasureSpec,
    _cylinder,
    embed,
    mirsky_cylinder,
    sample_mirsky,
    sample_product,
    squeeze,
)
from bfree.sieve import SAProfile, eta_window, phi_sa_window, phi_window
from bfree.sturmian import (
    RotationCoding,
    close_alpha_block_containment,
    hereditary_entropy_estimate,
    mme_block_frequency,
    rotation_complexity,
    sample_periodic_windows,
    two_mme_system,
)
from count_oracle import block_complexity_dp, closed_form_count
from sieve_oracle import crt_free_count_sieve


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_crt_exact_count():
    bset = validate_bset([2, 3, 5])
    formula = crt_free_count(bset)
    sieved = crt_free_count_sieve(bset)
    profile = SAProfile(
        validate_bset([4, 9]), (2, 3), (frozenset({0, 2}), frozenset({0, 3, 6}))
    )
    period = profile.bset.period
    ones = phi_sa_window(profile, (0, 0), 0, period).ones
    expected = math.prod(
        b - s for b, s in zip(profile.bset.moduli, profile.s)
    ) * (period // profile.bset.period)
    ok = formula == sieved == 8 and ones == expected == 12
    _report(1, ok, f"free count {formula}={sieved}, generalized period count {ones}")


def test_criterion_2_entropy_formula_vs_counting():
    bset = validate_bset([2, 3])
    h = entropy_from_complexity(block_complexity(bset, 2000))
    target = 1 / 3
    ok = target <= h[-1] <= target + 0.01 and all(x >= target - 1e-12 for x in h)
    _report(2, ok, f"(1/2000) log2 p_2000 = {h[-1]:.6f}, never below 1/3")


def test_criterion_2_in_exact_integers():
    # p_{2n} <= p_n^2 (a word of length 2n is two admissible halves), so
    # (1/n) log2 p_n falls along n = 6 * 2^j and stays at or above the
    # formula's h: 2^{n h} <= p_n <= p_{n/2}^2 pins h from above
    bset = validate_bset([2, 3])
    h = htop_bfree(bset).exact
    lengths = [6 * 2**j for j in range(12)]
    p = block_complexity(bset, lengths[-1])
    ok = True
    for n in lengths:
        bits = n * h
        ok &= bits.denominator == 1 and 2 ** int(bits) <= p[n - 1] <= p[n // 2 - 1] ** 2
        ok &= p[n - 1] == closed_form_count((2, 3), n)
    _report(2, ok, f"2^(n/3) <= p_n <= p_(n/2)^2 and p_n = closed form at n = 6..{lengths[-1]}")


def test_criterion_3_mirsky_cylinder_vs_sieve_frequency():
    bset = validate_bset([4, 9, 25, 49])
    n = 10**6
    bits = eta_window(bset, 0, n + 2).bits
    empirical = float((bits[:-2] & bits[2:]).mean())
    exact = float(mirsky_cylinder(bset, {0, 2}))
    ok = abs(empirical - exact) < 5e-3
    _report(3, ok, f"pattern frequency {empirical:.6f} vs exact {exact:.6f}")


def _chi_square_pvalue_7df(counts):
    """Pearson's chi-square test of 8 counts against equal cells: p-value.

    The survival function of chi-square with 7 degrees of freedom in closed
    form, erfc(sqrt(x/2)) + sqrt(2x/pi) e^(-x/2) (1 + x/3 + x^2/15); it
    agrees with scipy.stats.chi2.sf(x, 7) to 2e-15 on x in [0.5, 40].
    """
    expected = sum(counts) / len(counts)
    x = sum((o - expected) ** 2 / expected for o in counts)
    return math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2) * (1 + x / 3 + x * x / 15)


def test_criterion_4_maximal_entropy_sampler_law():
    bset = validate_bset([2, 3])
    n = 10**5
    batch = sample_product(ProductMeasureSpec(bset, Fraction(1, 2)), 0, 12, n, seed=42)
    freq = float(np.mean([w.bits[0] for w in batch.words]))
    sigma = math.sqrt((1 / 6) * (5 / 6) / n)
    freq_ok = abs(freq - 1 / 6) < 4 * sigma
    # mask bits at the first three coding-support positions are iid fair
    supports = {
        (r1, r2): np.flatnonzero(phi_window(OdometerPoint(bset, (r1, r2)), 0, 12).bits)[:3]
        for r1 in range(2)
        for r2 in range(3)
    }
    counts = np.zeros(8, dtype=int)
    bits = np.stack([w.bits for w in batch.words])
    for omega, idx in supports.items():
        b = bits[np.all(batch.omegas == omega, axis=1)][:, idx]
        counts += np.bincount(b[:, 0] * 4 + b[:, 1] * 2 + b[:, 2], minlength=8)
    pvalue = _chi_square_pvalue_7df(counts.tolist())
    ok = freq_ok and pvalue >= 1e-3
    _report(4, ok, f"one-frequency {freq:.5f} (4 sigma of 1/6), chi-square p = {pvalue:.4f}")


def test_criterion_5_product_type_entropy():
    bset = validate_bset([2, 3])
    exact = h_product_type(bset, Fraction(1, 2)).exact
    # plug-in estimate of the conditional block entropy at L = 12 over
    # ~10^6 sampled symbols: group windows by their odometer point, take
    # the bias-corrected empirical entropy per group.  The unconditional
    # mixture entropy carries the odometer's phase information (an extra
    # ~log2(6)/12 bits at this L), so the disintegrated form is the one
    # the closed formula describes.  Frozen seed 1.
    seed, L = 1, 12
    count = 10**6 // L + 1
    batch = sample_product(ProductMeasureSpec(bset, Fraction(1, 2)), 0, L, count, seed=seed)
    bits = np.stack([w.bits for w in batch.words])
    keys = np.packbits(bits, axis=1, bitorder="little").view(np.uint16)[:, 0]
    estimate = 0.0
    for omega in np.unique(batch.omegas, axis=0):
        freqs = np.bincount(keys[np.all(batch.omegas == omega, axis=1)])
        freqs = freqs[freqs > 0]
        n = freqs.sum()
        f = freqs / n
        h = -(f * np.log2(f)).sum() + (len(freqs) - 1) / (2 * n * math.log(2))
        estimate += (n / count) * h
    estimate /= L
    # sd of the estimate over seeds is about 8.5e-6; p = 0.49 shifts it
    # by about -9.6e-5
    ok = exact == Fraction(1, 3) and abs(estimate - 1 / 3) <= 4e-5
    _report(5, ok, f"formula exactly 1/3 bits, plug-in estimate {estimate:.6f}")


def test_criterion_6_spectrum_recovery():
    batch = sample_mirsky(validate_bset([3]), 0, 1000, 100, seed=11)
    nine = validate_bset([9])
    good = 0
    for w in batch.words:
        b, s, missing, b_prime = spectrum_profile(w, nine).entries[0]
        ms = sorted(missing)
        if s == 3 and b_prime == 3 and ms[1] - ms[0] == 3 and ms[2] - ms[1] == 3:
            good += 1
    ok = good >= 99
    _report(6, ok, f"{good}/100 windows recovered s=3, step-3 missing set, b'=3")


def test_criterion_7_inclusion_criterion_vs_oracle():
    mods = list(range(2, 31))
    bsets = [validate_bset([b]) for b in mods]
    for a, b in itertools.combinations(mods, 2):
        if math.gcd(a, b) == 1:
            bsets.append(validate_bset([a, b]))
    agree = all(
        includes(x, y) == word_level_includes(x, y) for x in bsets for y in bsets
    )
    assert construct_admissible([2, 3], 5) == {31, 17, 13, 19, 35}
    rng = np.random.default_rng(2024)
    verified = 0
    while verified < 200:
        small = list(rng.choice([2, 3, 5, 7], size=rng.integers(0, 4), replace=False))
        b_prime = int(rng.integers(2, 41))
        if any(b_prime % m == 0 for m in small):
            continue
        out = construct_admissible(small, b_prime)
        assert len(out) == b_prime
        assert all(x % m != 0 for m in small for x in out)
        assert {x % b_prime for x in out} == set(range(b_prime))
        verified += 1
    ok = agree and verified == 200
    _report(7, ok, f"verdicts agree on {len(bsets)**2} pairs; 200 witness sets verified")


def test_criterion_8_two_mme_separation():
    sys_a, sys_b = two_mme_system()
    half = Fraction(1, 2)
    exact_a = mme_block_frequency(sys_a, sys_a.block, half)
    exact_b = mme_block_frequency(sys_b, sys_a.block, half)
    from bfree.entropy import htop_periodic_hereditary

    ents = [htop_periodic_hereditary(s.block).exact for s in (sys_a, sys_b)]
    windows = sample_periodic_windows(sys_a, 0.5, 9, 10**6, seed=7)
    mc = float((windows == sys_a.block.bits).all(axis=1).mean())
    ok = (
        exact_a == Fraction(1, 72)
        and exact_b == 0
        and ents == [Fraction(1, 3), Fraction(1, 3)]
        and abs(mc - 1 / 72) < 0.003
    )
    _report(8, ok, f"exact 1/72 vs 0, entropies 1/3, Monte-Carlo {mc:.6f}")


def test_criterion_9_sturmian_hereditary_entropy_sandwich():
    golden = RotationCoding.golden()
    counts = rotation_complexity(golden, 50)
    linear = all(p <= 2 * n + 2 for n, p in enumerate(counts, start=1))
    estimate = hereditary_entropy_estimate(golden, 20)
    ok = linear and 0.5 <= estimate <= 0.55
    _report(9, ok, f"p_n <= 2n+2 up to 50, dominated-count estimate {estimate}")


def test_criterion_10_close_alpha_containment():
    golden = RotationCoding.golden()
    beta = RotationCoding(golden.alpha_fixed + (1 << 128) // 10**6)
    ok = close_alpha_block_containment(golden, beta, 4)
    _report(10, ok, "all 4-blocks of the perturbed coding occur in the golden one")


def test_criterion_11_squeeze_embed_round_trip():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(10**4):
        n = int(rng.integers(1, 40))
        z = BinaryWord(rng.integers(0, 2, size=n, dtype=np.uint8), int(rng.integers(-8, 8)))
        if z.ones == 0:
            continue
        u = BinaryWord(rng.integers(0, 2, size=z.ones, dtype=np.uint8))
        w = embed(u, z)
        if not (w.dominated_by(z) and np.array_equal(squeeze(w, z).bits, u.bits)):
            ok = False
            break
    _report(11, ok, "10^4 random (u, z) pairs round-trip and stay dominated")


def test_criterion_12_intrinsic_ergodicity():
    # The unique measure of maximal entropy is the Mirsky measure masked by
    # Bernoulli(1/2), whose cylinders _cylinder gives at p = 1/2.  Counted
    # independently, the share of admissible words of length N = qP that
    # show w in the middle tends to that value as q grows.
    cases = [
        ([2, 3], "1", (12, 24, 48, 96), Fraction(1, 6), 2e-6),
        ([4, 9], "11", (72, 144, 288), Fraction(7, 72), 1e-8),
        ([2, 9], "111", (18, 36, 72), Fraction(0), 0),  # 111 covers Z/2
    ]
    ok, details = True, []
    for moduli, w, lengths, value, bound in cases:
        bset = validate_bset(moduli)
        spec = CylinderSpec({i: int(bit) for i, bit in enumerate(w)})
        mme = _cylinder(bset.moduli, [(0,)] * len(bset), spec, Fraction(1, 2))
        errors = []
        for N in lengths:
            at = (N - len(w)) // 2
            shown = block_complexity_dp(bset, N, {at + i: int(bit) for i, bit in enumerate(w)})[-1]
            errors.append(abs(Fraction(shown, block_complexity(bset, N)[-1]) - mme))
        falls = all(a > b for a, b in zip(errors, errors[1:])) if value else not any(errors)
        ok = ok and mme == value and falls and errors[-1] <= bound
        details.append(f"{moduli} w={w}: {float(errors[0]):.1e} -> {float(errors[-1]):.1e}")
    _report(12, ok, "share showing w vs MME cylinder, " + "; ".join(details))


# Every pairwise coprime B of moduli >= 2 with sum(B) <= 12: 25 sets.
SMALL_SETS = [
    mods
    for size in (1, 2, 3)
    for mods in itertools.combinations(range(2, 12), size)
    if sum(mods) <= 12 and all(math.gcd(a, b) == 1 for a, b in itertools.combinations(mods, 2))
]


@given(st.sampled_from(SMALL_SETS), st.text(alphabet="01", min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_criterion_12_intrinsic_ergodicity_property(moduli, w):
    # Criterion 12 over random small B and words: the share of admissible
    # words of length N = qP showing w in the middle is exactly 0 where the
    # MME cylinder is, and otherwise its error falls from N = 2P to 4P and
    # is at most 1/40 at 4P.  Over all 350 pairs (B, w) of this domain the
    # error at 4P is at most 0.020 ([2], w = 000) and at most 0.92 times
    # the one at 2P.  From N = P to 2P it can rise ([11], w = 01: 1.2e-4 to
    # 1.2e-3), so q starts at 2.
    bset = validate_bset(moduli)
    spec = CylinderSpec({i: int(bit) for i, bit in enumerate(w)})
    mme = _cylinder(bset.moduli, [(0,)] * len(bset), spec, Fraction(1, 2))
    errors = []
    for N in (2 * bset.period, 4 * bset.period):
        at = (N - len(w)) // 2
        shown = block_complexity_dp(bset, N, {at + i: int(bit) for i, bit in enumerate(w)})[-1]
        errors.append(abs(Fraction(shown, block_complexity(bset, N)[-1]) - mme))
    if not mme:
        assert errors == [0, 0], (moduli, w, errors)
    else:
        assert errors[1] < errors[0] and errors[1] <= Fraction(1, 40), (moduli, w, errors)
