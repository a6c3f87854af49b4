import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfree import measures
from bfree.cli import main
from bfree.core import BinaryWord, CylinderSpec, OdometerPoint, squarefree_family, validate_bset
from bfree.errors import EmptySupport, LengthMismatch, TooManyZeros, WindowTooLarge
from bfree.measures import (
    GENERATOR_ID,
    ProductMeasureSpec,
    SampleBatch,
    _sample,
    embed,
    empirical_block_distribution,
    mask_batch,
    mirsky_cylinder,
    mixed_cylinder,
    sample_generalized,
    sample_mirsky,
    sample_product,
    squeeze,
)
from bfree.sieve import MAX_WINDOW_BITS, SAProfile, eta_window, phi_sa_window, phi_window
from bfree.sturmian import PeriodicHereditarySystem, sample_periodic_windows, two_mme_system
from cylinder_oracle import mixed_cylinder_ie


def haar_cylinder(bset, entries):
    """Exact Haar measure of a cylinder: the share of all odometer points
    whose coding shows ``entries`` (position -> bit)."""
    if not entries:
        return Fraction(1)
    lo, hi = min(entries), max(entries) + 1
    hits = 0
    for residues in itertools.product(*(range(b) for b in bset.moduli)):
        bits = phi_window(OdometerPoint(bset, residues), lo, hi).bits
        hits += all(bits[n - lo] == v for n, v in entries.items())
    return Fraction(hits, bset.period)


def sieve_haar_cylinder(bset, entries):
    """Exact Haar measure of a cylinder from one sieved window: the share of
    phases t in [0, P) at which eta(t + n) equals the bit of every entry."""
    lo, hi = min(entries), max(entries) + 1
    bits = eta_window(bset, lo, bset.period + hi).bits
    ok = np.ones(bset.period, dtype=bool)
    for n, v in entries.items():
        ok &= bits[n - lo : n - lo + bset.period] == v
    return Fraction(int(ok.sum()), bset.period)


def enumerated_cylinder(moduli, classes, entries, p):
    """Exact masked-coding measure of a cylinder by enumerating the period:
    every coordinate tuple is equally likely, a position struck by some
    coordinate is 0, and each other position is a 1 kept w.p. p."""
    total = Fraction(0)
    for point in itertools.product(*(range(b) for b in moduli)):
        weight = Fraction(1)
        for n, bit in entries.items():
            struck = any((r + n) % b in ak for r, b, ak in zip(point, moduli, classes))
            if bit:
                weight *= 0 if struck else p
            elif not struck:
                weight *= 1 - p
        total += weight
    return total / math.prod(moduli)


# Moduli for random coprime sets, one far beyond any enumeration.
MODULI_POOL = [2, 3, 4, 5, 7, 9, 11, 25, 10**10 + 19]


def sliced_frequencies(texts, n):
    """Block frequencies by slicing strings: the reference for the integer codes."""
    counts: dict[str, int] = {}
    for t in texts:
        for i in range(len(t) - n + 1):
            counts[t[i : i + n]] = counts.get(t[i : i + n], 0) + 1
    total = sum(counts.values())
    return {b: c / total for b, c in counts.items()}


def block_batch(texts, lo=0):
    """A batch over [lo, lo + L) whose rows are the equal-length ``texts``."""
    bits = np.array([[int(c) for c in t] for t in texts], dtype=np.uint8)
    bits.setflags(write=False)
    return SampleBatch(bits, lo, 0)


class TestMirskyCylinder:
    def test_single_position(self):
        assert mirsky_cylinder(validate_bset([2, 3]), {0}) == Fraction(1, 3)

    def test_covering_pair(self):
        assert mirsky_cylinder(validate_bset([2, 3]), {0, 1}) == 0

    def test_empty_set(self):
        assert mirsky_cylinder(validate_bset([4, 9, 25]), set()) == 1

    def test_large_modulus(self):
        bset = validate_bset([2, 10_000_000_019])
        assert mirsky_cylinder(bset, {0}) == Fraction(5_000_000_009, 10_000_000_019)
        assert mirsky_cylinder(bset, {0, 5, 10**30}) == 0
        # zeros at odd positions are forced by a one at 0 (mod 2)
        spec = CylinderSpec({0: 1, 1: 0, 7: 0})
        assert mixed_cylinder(bset, spec) == Fraction(5_000_000_009, 10_000_000_019)


class TestMixedCylinder:
    def test_reduces_to_mirsky(self):
        bset = validate_bset([2, 3])
        assert mixed_cylinder(bset, CylinderSpec({0: 1})) == Fraction(1, 3)

    def test_complement(self):
        bset = validate_bset([2, 3])
        assert mixed_cylinder(bset, CylinderSpec({0: 0})) == Fraction(2, 3)

    def test_impossible_pattern(self):
        assert mixed_cylinder(validate_bset([2]), CylinderSpec({0: 1, 1: 1})) == 0

    def test_zero_budget(self, monkeypatch):
        # 25 zeros 0, 4, .., 96 on [4,9,25]: one class mod 4 and all nine mod 9
        # strike a zero, so the DP may store min(2^25, 2 * 10) = 20 states
        bset = validate_bset([4, 9, 25])
        spec = CylinderSpec({n: 0 for n in range(0, 100, 4)})
        steps = []
        step = measures._cover_step
        monkeypatch.setattr(measures, "_cover_step", lambda *a: steps.append(a) or step(*a))
        monkeypatch.setattr(measures, "MAX_COVER_STATES", 19)
        with pytest.raises(TooManyZeros):
            mixed_cylinder(bset, spec)
        assert steps == []  # refused before any state was built
        monkeypatch.setattr(measures, "MAX_COVER_STATES", 20)
        assert mixed_cylinder(bset, spec) == haar_cylinder(bset, spec.entries) == Fraction(1, 4)
        assert steps

    def test_budget_refuses_at_once(self):
        # 21 zeros that seven moduli each strike one at a time: 22^6 products
        # and 2^21 subsets both exceed the budget
        spec = CylinderSpec({n: 0 for n in range(21)})
        with pytest.raises(TooManyZeros):
            mixed_cylinder(validate_bset([23, 29, 31, 37, 41, 43, 47]), spec)

    @given(
        st.lists(st.sampled_from(MODULI_POOL), max_size=4),
        st.sets(st.integers(-40, 79), max_size=6),
        st.sets(st.integers(-40, 79), max_size=14),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_inclusion_exclusion(self, pool, ones, zeros):
        moduli = []
        for b in pool:
            if all(math.gcd(a, b) == 1 for a in moduli):
                moduli.append(b)
        bset = validate_bset(sorted(moduli))
        spec = CylinderSpec({**{n: 1 for n in ones}, **{n: 0 for n in zeros - ones}})
        assert mixed_cylinder(bset, spec) == mixed_cylinder_ie(bset, spec)

    @pytest.mark.parametrize("n_zeros, seed", [(25, 1), (25, 2), (40, 3)])
    def test_long_cylinders_match_haar(self, n_zeros, seed):
        # cut from the free-point sequence itself, so the probability is positive
        bset = squarefree_family(4)
        rng = random.Random(seed)
        t0 = rng.randrange(10**6)
        bits = eta_window(bset, t0, t0 + 160).bits
        zeros = rng.sample([i for i in range(160) if not bits[i]], n_zeros)
        ones = rng.sample([i for i in range(160) if bits[i]], 3)
        entries = {**{i: 0 for i in zeros}, **{i: 1 for i in ones}}
        value = mixed_cylinder(bset, CylinderSpec(entries))
        assert value > 0
        assert value == sieve_haar_cylinder(bset, entries)

    def test_mask_bits_pass_the_window_gate(self, monkeypatch):
        # 30 zeros on [2, 3, 5] strike all ten coordinates: 10 x 30 mask bits
        bset = validate_bset([2, 3, 5])
        spec = CylinderSpec({n: 0 for n in range(30)})
        steps = []
        step = measures._cover_step
        monkeypatch.setattr(measures, "_cover_step", lambda *a: steps.append(a) or step(*a))
        monkeypatch.setattr("bfree.sieve.MAX_WINDOW_BITS", 200)
        with pytest.raises(WindowTooLarge):
            mixed_cylinder(bset, spec)
        assert steps == []  # refused before the DP started
        # a cylinder without zeros builds no mask and passes any budget
        assert mirsky_cylinder(bset, {0}) == Fraction(4, 15)
        monkeypatch.setattr("bfree.sieve.MAX_WINDOW_BITS", MAX_WINDOW_BITS)
        assert mixed_cylinder(bset, spec) == 0

    def test_setup_is_linear_in_the_mask_bits(self):
        # 2^14 odd zeros: the coordinate 1 mod 2 strikes them all, and each of
        # the 2^14 coordinates mod p that strikes one gets a mask of its own
        p = 10_000_000_019
        spec = CylinderSpec({2 * i + 1: 0 for i in range(1 << 14)})
        assert mixed_cylinder(validate_bset([2, p]), spec) == Fraction(1, 2)

    def test_huge_modulus_thirty_zeros(self):
        p = 10_000_000_019
        bset = validate_bset([2, p])
        # c_2 = 0 strikes every zero and leaves c_p free
        evens = CylinderSpec({n: 0 for n in range(0, 60, 2)})
        assert mixed_cylinder(bset, evens) == Fraction(1, 2)
        # an odd zero and a one at 3 force c_2 = 0 and c_p = 1
        spec = CylinderSpec({**{n: 0 for n in range(0, 58, 2)}, 1: 0, 3: 1})
        assert len(spec.zeros) == 30
        assert mixed_cylinder(bset, spec) == Fraction(1, 2 * p)

    @given(
        st.sampled_from([(2, 3), (4, 9), (2, 3, 5)]),
        st.sets(st.integers(-12, 24), max_size=5),
        st.sets(st.integers(-12, 24), max_size=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_haar_average(self, moduli, ones, zeros):
        bset = validate_bset(moduli)
        zeros = zeros - ones
        entries = {**{n: 1 for n in ones}, **{n: 0 for n in zeros}}
        assert mirsky_cylinder(bset, ones) == haar_cylinder(bset, {n: 1 for n in ones})
        assert mixed_cylinder(bset, CylinderSpec(entries)) == haar_cylinder(bset, entries)

    def test_partition_of_unity(self):
        # cylinder probabilities over all bit patterns at fixed positions sum to 1
        bset = validate_bset([2, 3, 5])
        positions = [0, 1, 4]
        total = sum(
            mixed_cylinder(bset, CylinderSpec(dict(zip(positions, bits))))
            for bits in np.ndindex(2, 2, 2)
        )
        assert total == 1


@st.composite
def _moduli_and_classes(draw):
    moduli = draw(st.sampled_from([(4, 9), (5, 7), (2, 3, 5), (3, 4, 5)]))
    classes = tuple(
        frozenset(draw(st.sets(st.integers(0, b - 1), min_size=1, max_size=b - 1)))
        for b in moduli
    )
    return moduli, classes


class TestCylinderCore:
    # Several classes per modulus: masks of one modulus overlap, which no
    # public caller reaches with more than one modulus.
    @given(
        _moduli_and_classes(),
        st.dictionaries(st.integers(-6, 14), st.integers(0, 1), max_size=10),
    )
    @example(((4, 9), ({0, 2}, {0, 3, 6})), {0: 0, 1: 0, 2: 0, 5: 1})
    @example(((5, 7), ({1}, {2, 4})), {0: 1, 3: 0, 6: 0, 8: 0})
    @settings(max_examples=80, deadline=None)
    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])
    def test_matches_period_enumeration(self, p, system, entries):
        moduli, classes = system
        value = measures._cylinder(moduli, classes, CylinderSpec(entries), p)
        assert value == enumerated_cylinder(moduli, classes, entries, p)


class TestSamplers:
    def test_deterministic(self):
        bset = validate_bset([2, 3])
        a = sample_mirsky(bset, 0, 10, 20, seed=7)
        b = sample_mirsky(bset, 0, 10, 20, seed=7)
        assert a.words == b.words
        assert a.generator == GENERATOR_ID

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**70)])
    @pytest.mark.parametrize("count", [0, 2])
    def test_seed_domain(self, seed, count):
        # a negative seed once reached numpy's Philox key check, and only when count > 0
        with pytest.raises(ValueError, match=f"seed {seed} is outside"):
            sample_mirsky(validate_bset([2, 3]), 0, 4, count, seed)

    def test_largest_seed(self):
        batch = sample_mirsky(validate_bset([2, 3]), 0, 4, 3, 2**64 - 1)
        assert batch.bits.shape == (3, 4) and batch.seed == 2**64 - 1

    def test_two_phase_words(self):
        batch = sample_mirsky(validate_bset([2]), 0, 2, 50, seed=1)
        assert {w.to_string() for w in batch.words} <= {"01", "10"}

    def test_position_zero_frequency(self):
        bset = validate_bset([2, 3])
        batch = sample_mirsky(bset, 0, 1, 20000, seed=3)
        freq = np.mean([w.bits[0] for w in batch.words])
        sigma = math.sqrt((1 / 3) * (2 / 3) / 20000)
        assert abs(freq - 1 / 3) < 4 * sigma

    def test_p_one_equals_mirsky(self):
        bset = validate_bset([2, 3])
        spec = ProductMeasureSpec(bset, Fraction(1))
        assert (
            sample_product(spec, 0, 8, 30, seed=5).words
            == sample_mirsky(bset, 0, 8, 30, seed=5).words
        )

    def test_product_masks_ones_only(self):
        bset = validate_bset([2, 3])
        spec = ProductMeasureSpec(bset, Fraction(1, 2))
        masked = sample_product(spec, 0, 12, 40, seed=9).words
        full = sample_mirsky(bset, 0, 12, 40, seed=9).words
        for m, f in zip(masked, full):
            assert m.dominated_by(f)

    def test_product_frequency(self):
        bset = validate_bset([2, 3])
        spec = ProductMeasureSpec(bset, Fraction(1, 2))
        batch = sample_product(spec, 0, 1, 30000, seed=11)
        freq = np.mean([w.bits[0] for w in batch.words])
        sigma = math.sqrt((1 / 6) * (5 / 6) / 30000)
        assert abs(freq - 1 / 6) < 4 * sigma

    def test_generalized_degeneration(self):
        bset = validate_bset([2, 3])
        prof = SAProfile.plain(bset)
        batch = sample_generalized(prof, Fraction(1), 0, 6, 25, seed=13)
        # same odometer and coding law as the plain sampler
        plain = sample_mirsky(bset, 0, 6, 25, seed=13)
        assert batch.words == plain.words

    def test_generalized_frequency(self):
        prof = SAProfile(validate_bset([4]), (2,), (frozenset({0, 2}),))
        batch = sample_generalized(prof, Fraction(1), 0, 1, 20000, seed=17)
        freq = np.mean([w.bits[0] for w in batch.words])
        sigma = math.sqrt(0.25 / 20000)
        assert abs(freq - 1 / 2) < 4 * sigma

    def test_bad_p(self):
        with pytest.raises(ValueError):
            ProductMeasureSpec(validate_bset([2]), Fraction(0))

    def test_metadata(self):
        batch = sample_mirsky(validate_bset([2]), 0, 2, 1, seed=99)
        meta = json.loads(batch.metadata_json())
        assert meta["seed"] == 99
        assert meta["generator"] == GENERATOR_ID
        assert meta["spec"]["measure"] == "mirsky"

    def test_csv_export(self, capsys):
        # the CLI's writer is the one batch CSV export
        batch = sample_mirsky(validate_bset([2]), 0, 2, 2, seed=0)
        argv = ["sample", "--measure", "mirsky", "--bset", "2", "--window", "0:2", "--count", "2"]
        assert main([*argv, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == ["index,bits", *(f"{i},{w.to_string()}" for i, w in enumerate(batch.words))]


class TestSamplerContractV2:
    """The parts of the sampler contract kept since v2: codings of their
    points, blocks, prefixes and budgets.  The v4 word streams are in
    TestSamplerContractV3."""

    def test_words_are_codings_of_their_omegas(self):
        bset = validate_bset([4, 9, 25])
        batch = sample_mirsky(bset, -7, 40, 300, seed=21)
        assert batch.omegas.shape == (300, 3)
        for w, omega in zip(batch.words, batch.omegas.tolist()):
            assert w == phi_window(OdometerPoint(bset, omega), -7, 40)
        masked = sample_product(ProductMeasureSpec(bset, Fraction(1, 3)), -7, 40, 300, seed=21)
        assert np.array_equal(masked.omegas, batch.omegas)
        assert all(m.dominated_by(w) for m, w in zip(masked.words, batch.words))
        assert sum(m.ones for m in masked.words) < sum(w.ones for w in batch.words)

    def test_generalized_words_are_codings_of_their_omegas(self):
        prof = SAProfile(validate_bset([4, 9]), (2, 3), (frozenset({0, 2}), frozenset({1, 4, 7})))
        batch = sample_generalized(prof, Fraction(1), 5, 41, 200, seed=23)
        # coordinates live on the profile's own odometer, Z/2 x Z/3
        assert batch.omegas.max(axis=0).tolist() == [1, 2]
        for w, omega in zip(batch.words, batch.omegas.tolist()):
            assert w == phi_sa_window(prof, omega, 5, 41)
        masked = sample_generalized(prof, Fraction(1, 2), 5, 41, 200, seed=23)
        assert all(m.dominated_by(w) for m, w in zip(masked.words, batch.words))

    def test_prefix_stability_across_chunks(self, monkeypatch):
        # rows of 5 bits: row 12 straddles mask words 0 and 1 at p = 1/2, and
        # every row but each fourth straddles two 16-bit digit words; DRAW = 2
        # splits the points and mask words into passes of two words
        for p in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
            spec = ProductMeasureSpec(validate_bset([2, 3, 5]), p)
            full = sample_product(spec, 3, 8, 40, seed=31)
            for draw in (measures.DRAW, 2):
                monkeypatch.setattr(measures, "DRAW", draw)
                for count in (0, 1, 3, 4, 5, 12, 13, 14, 39):
                    part = sample_product(spec, 3, 8, count, seed=31)
                    assert np.array_equal(part.bits, full.bits[:count])
                    assert np.array_equal(part.omegas, full.omegas[:count])

    def test_large_offset(self):
        bset = validate_bset([4, 9])
        lo = 10**18
        batch = sample_mirsky(bset, lo, lo + 30, 50, seed=2)
        for w, omega in zip(batch.words, batch.omegas.tolist()):
            assert w.offset == lo
            assert w == phi_window(OdometerPoint(bset, omega), lo, lo + 30)

    def test_budget_refused_before_allocation(self, monkeypatch):
        bset = validate_bset([2, 3])
        with pytest.raises(WindowTooLarge):
            sample_mirsky(bset, 0, 2**16, MAX_WINDOW_BITS // 2**16 + 1, seed=0)
        with pytest.raises(WindowTooLarge):
            sample_product(ProductMeasureSpec(bset, Fraction(1, 2)), 0, 2, 10**12, seed=0)
        # P = 6 <= count: the block is cut from one sieved line under the
        # block's budget, 447 = 149 x 3 bits is built and 7 x 64 is one over
        monkeypatch.setattr("bfree.sieve.MAX_WINDOW_BITS", 447)
        assert sample_mirsky(bset, 0, 3, 149, seed=0).bits.shape == (149, 3)
        with pytest.raises(WindowTooLarge):
            sample_mirsky(bset, 0, 64, 7, seed=0)

    def test_blocks_cut_from_one_sieved_line(self, monkeypatch):
        # what the sieve is asked for: one line of P + L - 1 bits when the
        # odometer is cyclic and P <= count, otherwise every row
        calls, sieve = [], measures._sieve

        def record(lo, hi, moduli, classes, omegas):
            calls.append((len(omegas), hi - lo))
            return sieve(lo, hi, moduli, classes, omegas)

        monkeypatch.setattr(measures, "_sieve", record)
        sample_mirsky(validate_bset([2, 3]), 0, 20, 20000, seed=1)
        sample_product(ProductMeasureSpec(squarefree_family(4), Fraction(1, 2)), 5, 1005, 4, seed=2)
        sample_periodic_windows(two_mme_system()[0], Fraction(1, 2), 18, 9, seed=3)
        sample_periodic_windows(two_mme_system()[0], Fraction(1, 2), 18, 8, seed=3)
        _sample((4, 6), [(0,), (0,)], (4, 6), Fraction(1), 0, 10, 100, 4)
        assert calls == [(1, 6 + 19), (4, 1000), (1, 9 + 17), (8, 18), (100, 10)]

    def test_window_errors_before_any_draw(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("drew before the window checks")

        monkeypatch.setattr("bfree.sieve.MAX_WINDOW_BITS", 3 * 64 * 900)
        monkeypatch.setattr(measures, "_words", draw)
        mods, classes = (4, 9, 25), [(0,)] * 3
        for lo, hi, count, error in [
            (0, 64 * 900, -1, ValueError),
            (5, 5, 3, ValueError),
            (9, 2, 3, ValueError),
            (0, 64 * 900, 4, WindowTooLarge),
            (-(2**70), -(2**70) + 3 * 64 * 900 + 1, 1, WindowTooLarge),
            # P = 900 <= count, a block one row over the budget
            (0, 64 * 3, 901, WindowTooLarge),
        ]:
            with pytest.raises(error):
                _sample(mods, classes, mods, Fraction(1, 2), lo, hi, count, 0)
        # int64 points hold coordinates below 2^63 only
        for m in (2**63, 2**63 + 1, 2**64 + 1):
            with pytest.raises(ValueError, match=f"modulus {m} is not below 2\\^63"):
                _sample((m,), [(0,)], (m,), Fraction(1), 0, 4, 2, 0)

    def test_wheel_blocks_are_read_only(self):
        bset = validate_bset([4, 9, 25])
        for p in (Fraction(1), Fraction(1, 2)):
            block, omegas = _sample(bset.moduli, [(0,)] * 3, bset.moduli, p, 0, 64 * 900 + 3, 3, 5)
            assert not block.flags.writeable and not omegas.flags.writeable
        batch = sample_mirsky(bset, 0, 64 * 900 + 3, 2, seed=1)
        with pytest.raises(ValueError):
            batch.words[1].bits[0] = 1

    def test_words_are_read_only(self):
        batch = sample_mirsky(validate_bset([2, 3]), 0, 8, 4, seed=1)
        with pytest.raises(ValueError):
            batch.words[0].bits[0] = 1
        with pytest.raises(ValueError):
            batch.omegas[0, 0] = 1

    def test_spec_records_the_call(self):
        bset = validate_bset([4, 9])
        prof = SAProfile(bset, (2, 3), (frozenset({0, 2}), frozenset({1, 4, 7})))
        half = Fraction(1, 2)
        specs = [
            sample_mirsky(bset, 1, 5, 3, seed=4).spec,
            sample_product(ProductMeasureSpec(bset, half), 1, 5, 3, seed=4).spec,
            sample_generalized(prof, half, 1, 5, 3, seed=4).spec,
        ]
        tail = {"window": [1, 5], "count": 3}
        assert specs == [
            {"measure": "mirsky", "moduli": [4, 9], **tail},
            {"measure": "product", "moduli": [4, 9], "p": "1/2", **tail},
            {"measure": "generalized", "moduli": [4, 9], "s": [2, 3], "a": [[0, 2], [1, 4, 7]],
             "p": "1/2", **tail},
        ]
        # dict equality ignores order; the JSON metadata keeps it
        assert [list(s) for s in specs] == [
            ["measure", "moduli", "window", "count"],
            ["measure", "moduli", "p", "window", "count"],
            ["measure", "moduli", "s", "a", "p", "window", "count"],
        ]

    def test_empty_batches(self):
        bset = validate_bset([2, 3])
        half = Fraction(1, 2)
        for batch in (
            sample_mirsky(bset, 0, 9, 0, seed=1),
            sample_product(ProductMeasureSpec(bset, half), 0, 9, 0, seed=1),
            sample_generalized(SAProfile.plain(bset), half, 0, 9, 0, seed=1),
        ):
            assert batch.words == ()
            assert batch.omegas.shape == (0, 2)
            assert batch.spec["count"] == 0
            assert empirical_block_distribution(batch, 3) == {}

    def test_generalized_law_matches_cylinder_engine_past_enumeration(self):
        # the period 4 * 9 * 25 * 49 * 121 = 5336100 is beyond enumerated_cylinder;
        # every 4-block's share lies within 4 sigma of the exact coverage DP
        bset = squarefree_family(5)
        a = tuple(map(frozenset, ({1}, {0, 4}, {0, 7, 11}, {2, 5}, {0, 3, 40})))
        prof = SAProfile(bset, tuple(map(len, a)), a)
        assert math.prod(prof.odometer_moduli) == 5336100
        half, lo, count = Fraction(1, 2), 3, 200_000
        batch = sample_generalized(prof, half, lo, lo + 4, count, seed=29)
        shares = np.bincount(batch.bits @ np.array([8, 4, 2, 1]), minlength=16) / count
        for code, share in enumerate(shares.tolist()):
            pattern = {lo + i: code >> (3 - i) & 1 for i in range(4)}
            exact = float(measures._cylinder(bset.moduli, prof.a, CylinderSpec(pattern), half))
            sigma = math.sqrt(exact * (1 - exact) / count)
            assert abs(share - exact) <= 4 * sigma, (pattern, share, exact)


W64 = 1 << 64


def splitmix(s, i):
    """Word i of SplitMix64 seeded with s: mix64(s + (i + 1) gamma)."""
    z = (s + (i + 1) * 0x9E3779B97F4A7C15) % W64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % W64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % W64
    return z ^ z >> 31


@functools.cache
def stream_key(seed, family, level):
    return splitmix(splitmix(seed, family), level)


def replay_v4(moduli, p, length, count, seed):
    """Contract v4 from the ``bfree.measures`` docstring, in plain Python
    ints: the points, the keep bit of every position, and the number of
    positions whose 16-bit digit tied."""
    points = []
    for i in range(count):
        row = []
        for k, m in enumerate(moduli):
            attempt = 0
            while (w := splitmix(stream_key(seed, 2 + k, attempt), i)) >= W64 - W64 % m:
                attempt += 1
            row.append(w % m)
        points.append(row)
    n, keep, ties = count * length, [], 0
    mask = [splitmix(stream_key(seed, 0, 0), i) for i in range(n // 4 + 1)]
    threshold, x = divmod(p * 2**16, 1)
    for j in range(n):
        if p == 1:
            keep.append(1)
        elif p == Fraction(1, 2):
            keep.append(mask[j // 64] >> j % 64 & 1)
        elif (digit := mask[j // 4] >> 16 * (j % 4) & 0xFFFF) != threshold:
            keep.append(int(digit < threshold))
        else:
            ties += 1
            level, rest, kept = 0, x, 0
            while rest:
                digit, rest = divmod(rest * W64, 1)
                if (w := splitmix(stream_key(seed, 1, level), j)) != digit:
                    kept = int(w < digit)
                    break
                level += 1
            keep.append(kept)
    return points, np.array(keep, dtype=np.uint8).reshape(count, length), ties


def patched_words(monkeypatch, forced, skip=()):
    """Make ``measures._words`` return forced[key, index] where given; return
    the list of (key, indices) it is asked for, keys in ``skip`` left out."""
    words, reads = measures._words, []

    def source(key, index):
        out = words(key, index)
        if key not in skip:
            reads.append((key, index.tolist()))
        for pos, i in enumerate(index.tolist()):
            out[pos] = forced.get((key, i), out[pos])
        return out

    monkeypatch.setattr(measures, "_words", source)
    return reads


ONE = PeriodicHereditarySystem(BinaryWord.from_string("1"))  # modulus 1, every bit 1


class TestSamplerContractV3:
    """The v4 word streams (v3 brought the exact mask, v4 its counter words)."""

    def test_stream_layout(self):
        # the documented contract replayed in plain ints; rows of 5 bits
        # straddle 64- and 16-bit words
        lo, hi, count, seed = 4, 9, 70, 77
        cases = itertools.product(
            (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 2**65)),
            ((2, 3), (4, 9, 25), (2, 10**10 + 19)),
        )
        for p, moduli in cases:
            bset = validate_bset(moduli)
            batch = sample_product(ProductMeasureSpec(bset, p), lo, hi, count, seed)
            mirsky = sample_mirsky(bset, lo, hi, count, seed)
            points, keep, _ = replay_v4(moduli, p, hi - lo, count, seed)
            assert batch.omegas.tolist() == points
            for i, omega in enumerate(points):
                coding = phi_window(OdometerPoint(bset, omega), lo, hi)
                assert np.array_equal(mirsky.bits[i], coding.bits)
            assert np.array_equal(batch.bits, mirsky.bits & keep)

    @pytest.mark.parametrize(
        "moduli, p, count",
        [
            # DRAW + 300 rows, each sieved on its own: the remainders of
            # the points cross a chunk boundary
            ((2, 10**10 + 19), Fraction(1, 3), measures.DRAW + 300),
            # one line of period P = count = 15015, rows cut from it at
            # CRT phases whose sums reach sum_k m_k P
            ((3, 5, 7, 11, 13), Fraction(1, 2), 3 * 5 * 7 * 11 * 13),
        ],
    )
    def test_stream_layout_of_long_batches(self, moduli, p, count):
        lo, hi, seed = 10**6, 10**6 + 3, 2024
        batch = sample_product(ProductMeasureSpec(validate_bset(moduli), p), lo, hi, count, seed)
        points, keep, _ = replay_v4(moduli, p, hi - lo, count, seed)
        assert batch.omegas.tolist() == points
        coding = np.ones((count, hi - lo), dtype=np.uint8)
        for k, m in enumerate(moduli):
            coding &= (batch.omegas[:, k, None] + np.arange(lo, hi)) % m != 0
        assert np.array_equal(batch.bits, coding & keep)

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 3), Fraction(3, 2**65)])
    def test_periodic_windows_replay(self, p):
        # the block "1" has modulus 1 and all-1 windows, so its rows are the
        # keep bits; 2^17 positions hold 16-bit ties, settled in the tie
        # streams at p = 1/3
        length, count, seed = 64, 2048, 9
        windows = sample_periodic_windows(ONE, p, length, count, seed)
        points, keep, ties = replay_v4((1,), p, length, count, seed)
        assert points == [[0]] * count
        assert np.array_equal(windows, keep)
        assert ties >= 1 and (p or not keep.any())
        assert not sample_periodic_windows(two_mme_system()[0], 0, 9, 50, seed=3).any()

    def test_forced_tie_and_rejection(self, monkeypatch):
        # 1/3 = 0.T (1/3 2^-16) with T = 21845, and the rest 1/3 has every
        # base-2^64 digit D: positions 0, 1, 2 and 7 tie; 0 ties again at
        # level 0 and keeps at level 1, 1 drops and 2 and 7 settle at level 0
        seed, t, d = 5, (1 << 16) // 3, W64 // 3
        mask, tie0, tie1 = stream_key(seed, 0, 0), stream_key(seed, 1, 0), stream_key(seed, 1, 1)
        forced = {
            (mask, 0): t | t << 16 | t << 32 | (t + 1) << 48,
            (mask, 1): (t - 1) | 0 << 16 | 0xFFFF << 32 | t << 48,
            (tie0, 0): d, (tie0, 1): d + 1, (tie0, 2): d - 5, (tie0, 7): d + 1,
            (tie1, 0): d - 1,
        }
        reads = patched_words(monkeypatch, forced, skip={stream_key(seed, 2, 0)})
        bits = sample_periodic_windows(ONE, Fraction(1, 3), 8, 1, seed)
        assert bits.tolist() == [[1, 0, 1, 0, 1, 1, 0, 0]]
        assert reads == [(mask, [0, 1]), (tie0, [0, 1, 2, 7]), (tie1, [0])]
        # 2^64 mod 3 = 1: the top word rejects, twice for slot 1, which then
        # takes attempt 2; 4 divides 2^64, so the top word gives 3 mod 4
        attempt = [stream_key(seed, 2, a) for a in range(3)]
        forced = {
            (attempt[0], 1): W64 - 1, (attempt[1], 1): W64 - 1, (stream_key(seed, 3, 0), 2): W64 - 1
        }
        reads = patched_words(monkeypatch, forced)
        omegas = sample_mirsky(validate_bset([3, 4]), 0, 6, 4, seed).omegas
        monkeypatch.undo()
        plain = sample_mirsky(validate_bset([3, 4]), 0, 6, 4, seed).omegas
        assert omegas[:, 0].tolist() == [plain[0, 0], splitmix(attempt[2], 1) % 3, *plain[2:, 0]]
        assert omegas[:, 1].tolist() == [plain[0, 1], plain[1, 1], 3, plain[3, 1]]
        assert [(key, index) for key, index in reads if key != attempt[0]] == [
            (attempt[1], [1]), (attempt[2], [1]), (stream_key(seed, 3, 0), [0, 1, 2, 3])
        ]

    def test_tie_drops_where_the_digits_of_p_end(self, monkeypatch):
        seed = 6
        mask, tie0, point = stream_key(seed, 0, 0), stream_key(seed, 1, 0), {stream_key(seed, 2, 0)}
        # 3 / 2^16 is its first digit: a tie drops with no further read
        reads = patched_words(monkeypatch, {(mask, 0): 3 | 2 << 16 | 4 << 32 | 3 << 48}, point)
        bits = sample_periodic_windows(ONE, Fraction(3, 2**16), 4, 1, seed)
        assert bits.tolist() == [[0, 1, 0, 0]]
        assert reads == [(mask, [0])]
        # 3 / 2^65 = 0.0 (3 2^15) in base 2^16 then 2^64: a tie at level 0
        # drops with no level 1, a word below keeps
        forced = {
            (mask, 0): 0 | 0 << 16 | 1 << 32 | 0 << 48,
            (tie0, 0): 3 << 15, (tie0, 1): (3 << 15) - 1, (tie0, 3): 0,
        }
        reads = patched_words(monkeypatch, forced, point)
        bits = sample_periodic_windows(ONE, Fraction(3, 2**65), 4, 1, seed)
        assert bits.tolist() == [[0, 1, 0, 1]]
        assert reads == [(mask, [0]), (tie0, [0, 1, 3])]
        # dyadic p down to 2^-16 never reads a tie stream, ties or not
        monkeypatch.undo()
        for p in (Fraction(1, 4), Fraction(1, 2**16)):
            reads = patched_words(monkeypatch, {}, point)
            keep = sample_periodic_windows(ONE, p, 64, 2048, seed)
            assert {key for key, _ in reads} == {mask}
            _, replayed, ties = replay_v4((1,), p, 64, 2048, seed)
            assert np.array_equal(keep, replayed) and ties >= 1
            monkeypatch.undo()

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3)])
    def test_mask_draw_is_not_part_of_the_contract(self, monkeypatch, p):
        spec = ProductMeasureSpec(validate_bset([2, 3, 5]), p)
        full = sample_product(spec, 3, 10, 2000, seed=41)
        for draw in (1, 3):
            monkeypatch.setattr(measures, "DRAW", draw)
            part = sample_product(spec, 3, 10, 2000, seed=41)
            assert np.array_equal(part.bits, full.bits)
            assert np.array_equal(part.omegas, full.omegas)

    def test_law_across_the_word_boundary(self):
        # positions 62..65 straddle row 0's first two mask words; row i
        # starts 70 i bits into the mask
        bset, half, count = validate_bset([2, 3]), Fraction(1, 2), 20000
        bits = sample_product(ProductMeasureSpec(bset, half), 0, 70, count, seed=43).bits
        for n in (62, 63, 64):
            shares = np.bincount(2 * bits[:, n] + bits[:, n + 1], minlength=4) / count
            for code, share in enumerate(shares.tolist()):
                spec = CylinderSpec({n: code >> 1, n + 1: code & 1})
                exact = float(measures._cylinder(bset.moduli, [(0,), (0,)], spec, half))
                sigma = math.sqrt(exact * (1 - exact) / count)
                assert abs(share - exact) <= 4 * sigma, (n, code, share, exact)

    def test_generator_in_metadata(self):
        batch = sample_product(ProductMeasureSpec(validate_bset([2])), 0, 2, 1, seed=3)
        assert GENERATOR_ID == "splitmix64-counter-v4"
        assert json.loads(batch.metadata_json())["generator"] == GENERATOR_ID


class TestMaskBatch:
    def test_coordinatewise_product(self):
        bset = validate_bset([2, 3])
        base = sample_mirsky(bset, 0, 6, 10, seed=1)
        kappa = sample_mirsky(bset, 0, 6, 10, seed=2)
        out = mask_batch(base, kappa)
        for w, b, k in zip(out.words, base.words, kappa.words):
            assert np.array_equal(w.bits, b.bits & k.bits)

    def test_alignment_required(self):
        bset = validate_bset([2])
        with pytest.raises(LengthMismatch):
            mask_batch(
                sample_mirsky(bset, 0, 6, 5, seed=1),
                sample_mirsky(bset, 0, 6, 6, seed=1),
            )

    def test_offsets_must_match(self):
        base, kappa = block_batch(["1101", "0110"], 5), block_batch(["0111", "1100"], 5)
        with pytest.raises(LengthMismatch):
            mask_batch(base, block_batch(["0111", "1100"], 4))
        out = mask_batch(base, kappa)
        assert [w.to_string() for w in out.words] == ["0101", "0100"]
        assert [w.offset for w in out.words] == [5, 5]
        assert out.omegas is None
        with pytest.raises(ValueError):
            out.bits[0, 0] = 1


class TestSqueezeEmbed:
    def test_read_at_support(self):
        x = BinaryWord.from_string("110010")
        z = BinaryWord.from_string("101010")
        assert squeeze(x, z).to_string() == "101"

    def test_squeeze_self(self):
        z = BinaryWord.from_string("0110100")
        assert squeeze(z, z).to_string() == "111"

    def test_squeeze_identity(self):
        x = BinaryWord.from_string("010011")
        assert squeeze(x, BinaryWord.from_string("111111")) == x

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            squeeze(BinaryWord.from_string("01"), BinaryWord.from_string("00"))

    def test_negative_support_offsets_result(self):
        # two support positions left of zero land at indices -2 and -1
        x = BinaryWord.from_string("111100", -3)
        z = BinaryWord.from_string("110101", -3)
        out = squeeze(x, z)
        assert out.offset == -2
        assert out.to_string() == "1110"

    @pytest.mark.parametrize("offset", [2**63 - 3, -(2**63) - 3, 10**20, -(10**20)])
    def test_offsets_past_int64(self, offset):
        x = BinaryWord.from_string("110010", offset)
        z = BinaryWord.from_string("101011", offset)
        out = squeeze(x, z)
        assert out.to_string() == "1010" and out.offset == -4 * (offset < 0)
        assert embed(BinaryWord.from_string("0110"), z) == BinaryWord.from_string("001010", offset)

    def test_embed_example(self):
        z = BinaryWord.from_string("101010")
        out = embed(BinaryWord.from_string("101"), z)
        assert out.to_string() == "100010"

    def test_embed_extremes(self):
        z = BinaryWord.from_string("011010")
        assert embed(BinaryWord.from_string("111"), z) == z
        assert embed(BinaryWord.from_string("000"), z).ones == 0

    def test_embed_length_check(self):
        with pytest.raises(LengthMismatch):
            embed(BinaryWord.from_string("11"), BinaryWord.from_string("101010"))

    @given(st.data())
    @settings(max_examples=200)
    def test_round_trip(self, data):
        z_text = data.draw(st.text(alphabet="01", min_size=1, max_size=32))
        z = BinaryWord.from_string(z_text, data.draw(st.integers(-16, 16)))
        u_text = data.draw(
            st.text(alphabet="01", min_size=z.ones, max_size=z.ones)
        )
        if z.ones == 0:
            return
        u = BinaryWord(np.array([int(c) for c in u_text], dtype=np.uint8))
        w = embed(u, z)
        assert w.dominated_by(z)
        assert np.array_equal(squeeze(w, z).bits, u.bits)


class TestEmpiricalBlockDistribution:
    def test_all_zero(self):
        bset = validate_bset([2])
        batch = sample_product(
            ProductMeasureSpec(bset, Fraction(1, 10**6)), 0, 4, 5, seed=1
        )
        # with essentially all ones dropped the only 1-block is "0"
        dist = empirical_block_distribution(batch, 1)
        assert dist == {"0": 1.0}

    def test_sums_to_one(self):
        batch = sample_mirsky(validate_bset([2, 3]), 0, 10, 30, seed=4)
        dist = empirical_block_distribution(batch, 3)
        assert abs(sum(dist.values()) - 1) < 1e-12

    def test_mirsky_pairs(self):
        batch = sample_mirsky(validate_bset([2]), 0, 2, 4000, seed=6)
        dist = empirical_block_distribution(batch, 2)
        assert set(dist) == {"01", "10"}
        assert abs(dist["01"] - 0.5) < 0.05

    def test_empirical_matches_mixed_cylinder(self):
        # 4-sigma binomial agreement at a fixed seed
        bset = validate_bset([2, 3])
        spec = CylinderSpec({0: 1, 1: 0, 2: 0})
        expected = float(mixed_cylinder(bset, spec))
        n = 10**5
        batch = sample_mirsky(bset, 0, 3, n, seed=12)
        hits = sum(
            1
            for w in batch.words
            if w.bits[0] == 1 and w.bits[1] == 0 and w.bits[2] == 0
        )
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(hits / n - expected) < 4 * sigma

    @given(
        st.integers(1, 24).flatmap(
            lambda size: st.lists(
                st.text(alphabet="01", min_size=size, max_size=size), min_size=1, max_size=40
            )
        ),
        st.integers(1, 24),
    )
    # counted (2^n <= windows) and sorted (2^n > windows); in both, a window
    # across a row end would show "11", which no row holds
    @example(["1000", "0001"] * 20, 2)
    @example(["1" + "0" * 22 + "1"] * 2, 23)
    @example(["0110" * 6] * 40, 9)
    @example(["0110" * 6] * 40, 10)
    @settings(max_examples=200)
    def test_matches_string_slicing(self, texts, n):
        batch = block_batch(texts)
        if n > len(texts[0]):
            with pytest.raises(ValueError):
                empirical_block_distribution(batch, n)
            return
        assert empirical_block_distribution(batch, n) == sliced_frequencies(texts, n)

    def test_counting_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use, a cold cost of about 16 ms
        code = (
            "import sys\n"
            "from bfree.measures import SampleBatch, empirical_block_distribution\n"
            "from bfree.core import BinaryWord\n"
            "from bfree.sturmian import RotationCoding, collect_blocks\n"
            "batch = SampleBatch(BinaryWord.from_string('0110' * 20).bits[None], 0, 0)\n"
            "assert empirical_block_distribution(batch, 3)\n"
            "assert empirical_block_distribution(batch, 70)\n"
            "assert collect_blocks(RotationCoding.golden(), 4)\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr

    def test_blocks_longer_than_an_int64(self):
        rng = np.random.default_rng(8)
        texts = ["".join(map(str, rng.integers(0, 2, 90))) for _ in range(3)]
        texts.append(texts[1])  # repeated blocks must add up
        texts += ["0" + texts[1][:-1], "1" + texts[1][:-1]]  # their first 66-blocks differ in the first bit only
        batch = block_batch(texts)
        for n in (62, 63, 64, 66):
            assert empirical_block_distribution(batch, n) == sliced_frequencies(texts, n)
