import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfree.core import BinaryWord, CylinderSpec, OdometerPoint, validate_bset
from bfree.errors import EmptySupport, LengthMismatch, TooManyZeros, WindowTooLarge
from bfree.measures import (
    CHUNK,
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
from bfree.sieve import MAX_WINDOW_BITS, SAProfile, phi_sa_window, phi_window


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


def sliced_frequencies(texts, n):
    """Block frequencies by slicing strings: the reference for the integer codes."""
    counts: dict[str, int] = {}
    for t in texts:
        for i in range(len(t) - n + 1):
            counts[t[i : i + n]] = counts.get(t[i : i + n], 0) + 1
    total = sum(counts.values())
    return {b: c / total for b, c in counts.items()}


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

    def test_zero_budget(self):
        spec = CylinderSpec({n: 0 for n in range(25)})
        with pytest.raises(TooManyZeros):
            mixed_cylinder(validate_bset([2, 3]), spec)

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


class TestSamplers:
    def test_deterministic(self):
        bset = validate_bset([2, 3])
        a = sample_mirsky(bset, 0, 10, 20, seed=7)
        b = sample_mirsky(bset, 0, 10, 20, seed=7)
        assert a.words == b.words
        assert a.generator == GENERATOR_ID

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

    def test_csv_export(self):
        batch = sample_mirsky(validate_bset([2]), 0, 2, 2, seed=0)
        lines = batch.to_csv().strip().split("\n")
        assert lines[0] == "index,offset,bits"
        assert len(lines) == 3


class TestSamplerContractV2:
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

    def test_stream_layout(self):
        # the documented contract, replayed with numpy's Philox directly
        bset, p, lo, hi, seed = validate_bset([2, 3]), Fraction(1, 3), 4, 9, 77
        batch = sample_product(ProductMeasureSpec(bset, p), lo, hi, CHUNK + 2, seed)
        for c, first, stop in ((0, 0, CHUNK), (1, CHUNK, CHUNK + 2)):
            rng = np.random.Generator(np.random.Philox(key=(seed << 64) | c))
            points = np.stack([rng.integers(0, m, size=CHUNK) for m in (2, 3)], axis=1)
            assert np.array_equal(batch.omegas[first:stop], points[: stop - first])
            keep = rng.random((stop - first, hi - lo)) < float(p)
            for i, omega in zip(range(first, stop), points.tolist()):
                coding = phi_window(OdometerPoint(bset, omega), lo, hi).bits
                assert np.array_equal(batch.words[i].bits, coding & keep[i - first])

    def test_prefix_stability_across_chunks(self):
        spec = ProductMeasureSpec(validate_bset([2, 3, 5]), Fraction(1, 2))
        full = sample_product(spec, 3, 20, 4 * CHUNK, seed=31)
        for count in (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
            part = sample_product(spec, 3, 20, count, seed=31)
            assert part.words == full.words[:count]
            assert np.array_equal(part.omegas, full.omegas[:count])

    def test_large_offset(self):
        bset = validate_bset([4, 9])
        lo = 10**18
        batch = sample_mirsky(bset, lo, lo + 30, 50, seed=2)
        for w, omega in zip(batch.words, batch.omegas.tolist()):
            assert w.offset == lo
            assert w == phi_window(OdometerPoint(bset, omega), lo, lo + 30)

    def test_budget_refused_before_allocation(self):
        bset = validate_bset([2, 3])
        with pytest.raises(WindowTooLarge):
            sample_mirsky(bset, 0, 2**16, MAX_WINDOW_BITS // 2**16 + 1, seed=0)
        with pytest.raises(WindowTooLarge):
            sample_product(ProductMeasureSpec(bset, Fraction(1, 2)), 0, 2, 10**12, seed=0)

    def test_window_errors_before_any_draw(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("drew before the window checks")

        monkeypatch.setattr("bfree.sieve.MAX_WINDOW_BITS", 3 * 64 * 900)
        monkeypatch.setattr(np.random, "Philox", draw)
        mods, classes = (4, 9, 25), [(0,)] * 3
        for lo, hi, count, error in [
            (0, 64 * 900, -1, ValueError),
            (5, 5, 3, ValueError),
            (9, 2, 3, ValueError),
            (0, 64 * 900, 4, WindowTooLarge),
            (-(2**70), -(2**70) + 3 * 64 * 900 + 1, 1, WindowTooLarge),
        ]:
            with pytest.raises(error):
                _sample(mods, classes, mods, Fraction(1, 2), lo, hi, count, 0)

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

    def test_generator_in_metadata(self):
        batch = sample_product(ProductMeasureSpec(validate_bset([2])), 0, 2, 1, seed=3)
        assert GENERATOR_ID == "philox4x64-chunked-v2"
        assert json.loads(batch.metadata_json())["generator"] == GENERATOR_ID

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

    def test_ragged_batches(self):
        words = tuple(BinaryWord.from_string(t, o) for t, o in (("1101", 0), ("011", 5)))
        masks = tuple(BinaryWord.from_string(t, o) for t, o in (("0111", 0), ("110", 5)))
        out = mask_batch(SampleBatch(words, 0), SampleBatch(masks, 0))
        assert [w.to_string() for w in out.words] == ["0101", "010"]
        assert [w.offset for w in out.words] == [0, 5]
        assert out.omegas is None


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
        st.lists(st.text(alphabet="01", min_size=1, max_size=24), min_size=1, max_size=6),
        st.integers(1, 12),
    )
    @settings(max_examples=100)
    def test_matches_string_slicing(self, texts, n):
        batch = SampleBatch(tuple(BinaryWord.from_string(t) for t in texts), 0)
        if n > min(map(len, texts)):
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
            "batch = SampleBatch((BinaryWord.from_string('0110' * 20),), 0)\n"
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
        texts = ["".join(map(str, rng.integers(0, 2, size))) for size in (66, 70, 70, 90)]
        texts.append(texts[1])  # repeated blocks must add up
        texts += ["0" + texts[1], "1" + texts[1]]  # their first 66-blocks differ in the first bit only
        batch = SampleBatch(tuple(BinaryWord.from_string(t) for t in texts), 0)
        for n in (62, 63, 64, 66):
            assert empirical_block_distribution(batch, n) == sliced_frequencies(texts, n)
