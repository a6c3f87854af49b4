import itertools
import json
import math
import operator
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfree import measures, sturmian
from bfree.admissibility import admissible_words
from bfree.core import BinaryWord, validate_bset
from bfree.errors import (
    BudgetExceeded,
    NotMinimalPeriod,
    PrecisionExhausted,
    PreconditionUnmet,
    StateSpaceTooLarge,
    TooManyZeros,
    WindowTooLarge,
)
from bfree.measures import sample_generalized
from bfree.sieve import MAX_WINDOW_BITS, SAProfile
from bfree.sturmian import (
    PeriodicHereditarySystem,
    RotationCoding,
    close_alpha_block_containment,
    collect_blocks,
    hereditary_closure_count,
    hereditary_entropy_estimate,
    minimal_subset_variant,
    mme_block_frequency,
    rotation_complexity,
    sample_periodic_windows,
    sturmian_window,
    transitive_closure_point,
    two_mme_system,
)
from rotation_oracle import sturmian_window_loop

GOLDEN = RotationCoding.golden()

# deterministic output of the transitive construction over the parity-free
# catalogue, n1 = 1, h = 1/2; frozen after property verification below
TRANSITIVE_FIXTURE = (
    "000100000000000000000000000000000000000001000000000000000010"
    "000000000000000100000000000000000101000000000000001000000000"
)


class TestRotationCoding:
    def test_golden_prefix(self):
        assert sturmian_window(GOLDEN, 0, 6).to_string() == "101011"

    def test_full_interval_all_ones(self):
        coding = RotationCoding.golden(interval=(Fraction(0), Fraction(1)))
        assert sturmian_window(coding, 0, 20).ones == 20

    def test_golden_continued_fraction(self):
        assert GOLDEN.continued_fraction_prefix(12) == [1] * 12

    def test_json_fields(self):
        obj = json.loads(GOLDEN.to_json())
        assert set(obj) == {"alpha_cf", "alpha_fixed", "y", "interval"}
        assert obj["interval"] == ["0", "1/2"]

    def test_precision_exhausted_near_endpoint(self):
        # alpha a hair under 1/2 with offset phase: at n=2 the phase lands
        # one unit below 0, inside the forward error of the truncation
        coding = RotationCoding((1 << 127) - 1, 1)
        with pytest.raises(PrecisionExhausted):
            sturmian_window(coding, 0, 3)

    def test_truncated_y_counts_in_the_error(self):
        # y = 1/3 + 2^-200 truncates to a third of a unit below the
        # endpoint 1/3, so the computed phase at n=0 reads bit 0 where the
        # true bit is 1
        coding = RotationCoding.from_real(
            Fraction(1, 5), Fraction(1, 3) + Fraction(1, 2**200), (Fraction(1, 3), Fraction(2, 3))
        )
        with pytest.raises(PrecisionExhausted, match="n=0"):
            sturmian_window(coding, 0, 1)

    def test_negative_step_on_an_endpoint(self):
        # alpha = 1/2 + 2^-200 truncates to exactly 1/2, so the phase at
        # n=-1 is computed as the endpoint 1/2 (bit 0) while the true phase
        # lies just below it (bit 1)
        coding = RotationCoding.from_real(Fraction(1, 2) + Fraction(1, 2**200))
        with pytest.raises(PrecisionExhausted, match="n=-1"):
            sturmian_window(coding, -1, 0)
        assert sturmian_window(coding, 1, 2).to_string() == "0"

    def test_density_close_to_interval_length(self):
        for N in (100, 1000, 5000):
            w = sturmian_window(GOLDEN, 0, N)
            assert abs(w.ones / N - 0.5) <= 3 / N

    def test_negative_window(self):
        w = sturmian_window(GOLDEN, -5, 5)
        assert len(w) == 10 and w.offset == -5

    def test_window_budget(self, monkeypatch):
        # read at call time, and refused before the bits are allocated
        monkeypatch.setattr("bfree.sieve.MAX_WINDOW_BITS", 100)
        assert len(sturmian_window(GOLDEN, 10**20, 10**20 + 100)) == 100
        monkeypatch.setattr("numpy.empty", None)
        with pytest.raises(WindowTooLarge):
            sturmian_window(GOLDEN, -50, 51)

    @pytest.mark.parametrize(
        "coding, lo, hi",
        [
            (GOLDEN, 0, 20000),
            (GOLDEN, 10**6, 10**6 + 5000),
            (GOLDEN, -5000, 5000),
            (GOLDEN, 10**20, 10**20 + 3000),
            (GOLDEN, 2**64 - 1500, 2**64 + 1500),
            (RotationCoding.from_real(Fraction(317, 347) + Fraction(1, 10**9)), 0, 20000),
            (RotationCoding.golden(interval=(Fraction(0), Fraction(1))), -70000, 70000),
        ],
    )
    def test_matches_loop_across_chunks(self, coding, lo, hi):
        assert sturmian_window(coding, lo, hi) == sturmian_window_loop(coding, lo, hi)


_M = 1 << 128


@st.composite
def _fixed_near_rational(draw):
    # a 128-bit fixed-point value, often a few units, 2^64 units or a few
    # top words (2^96 units) off a small rational, so that phases land
    # near interval endpoints
    base = draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
    delta = draw(
        st.one_of(
            st.integers(-4, 4),
            st.integers(-(2**66), 2**66),
            st.integers(-(2**98), 2**98),
            st.integers(0, _M - 1),
        )
    )
    return (base.numerator * _M // base.denominator + delta) % _M


@st.composite
def _one_top_word_ends(draw):
    # endpoints whose top words (first 32 bits) agree mod 2^32: an interval
    # narrower than 2^-32 inside the top word of a small rational, or
    # [a, 1) with a < 2^-32, which wraps around the whole circle
    if draw(st.booleans()):
        return [Fraction(draw(st.integers(0, 2**20 - 1)), 2**52), Fraction(1)]
    r = draw(st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda f: f < 1))
    u, v = sorted(draw(st.lists(st.integers(0, 2**20 - 1), min_size=2, max_size=2, unique=True)))
    word = math.floor(r * 2**32) << 20
    return [Fraction(word + u, 2**52), Fraction(word + v, 2**52)]


def _outcome(coder, coding, lo, hi):
    try:
        return coder(coding, lo, hi).bits.tobytes()
    except PrecisionExhausted as exc:
        return str(exc)  # names the first n


class TestLimbCoderProperty:
    # sturmian_window's filter against the per-bit big-int oracle
    @settings(max_examples=300, deadline=None)
    @given(
        alpha=_fixed_near_rational(),
        y=_fixed_near_rational(),
        ends=st.one_of(
            st.lists(
                st.fractions(min_value=0, max_value=1, max_denominator=8),
                min_size=2,
                max_size=2,
                unique=True,
            ),
            _one_top_word_ends(),
        ),
        base=st.sampled_from([0, -300, 2**64 - 150, -(2**64) - 150, 10**20, 2**70, 2**127, -(2**128)]),
        shift=st.integers(-200, 200),
        size=st.integers(1, 300),
        chunk=st.one_of(st.none(), st.integers(1, 64)),
    )
    # at n = 6 the phase lies 2 units under 1/2, past a carry out of its low 64 bits
    @example(
        alpha=(3 << 64) | (1 << 64) - 1,
        y=((1 << 127) - 2 - 6 * ((3 << 64) | (1 << 64) - 1)) % _M,
        ends=[Fraction(0), Fraction(1, 2)],
        base=0,
        shift=5,
        size=3,
        chunk=64,
    )
    # at n = 3 the top word is 2 above the filter's: i*alpha_top / 2^32
    # has fraction 1 - 2^-32, which 3 (2^64 - 1) / 2^96 carries, and the
    # low 96 bits of y and 3 alpha carry again.  The phase is 2^127 + 5,
    # past the endpoint 1/2 (bit 0) while the filter's top word reads 2^31 - 2.
    @example(
        alpha=0x1234567855555555FFFFFFFFFFFFFFFF,
        y=0x4962FC96FFFFFFFE0000000000000008,
        ends=[Fraction(0), Fraction(1, 2)],
        base=0,
        shift=0,
        size=4,
        chunk=None,
    )
    def test_limb_coder_matches_loop(self, alpha, y, ends, base, shift, size, chunk):
        # equal bits, or PrecisionExhausted at the same n with the same message
        coding = RotationCoding(alpha or 1, y, tuple(sorted(ends)))
        lo = base + shift
        with mock.patch("bfree.sturmian._CHUNK", chunk or sturmian._CHUNK):
            got = _outcome(sturmian_window, coding, lo, lo + size)
        assert got == _outcome(sturmian_window_loop, coding, lo, lo + size)


class TestTopWordFilter:
    @pytest.mark.parametrize(
        "coding", [GOLDEN, RotationCoding.from_real(Fraction(9, 137), Fraction(1, 411))]
    )
    def test_few_positions_take_the_exact_rule(self, coding):
        # a near position lies within 7 top words (7 * 2^-32) of an
        # endpoint; golden has one, its phase 0 at n = 0, and the
        # rational phases stay 1/(2 * 137 * 411) away from both endpoints
        with mock.patch.object(sturmian, "_exact_bit", wraps=sturmian._exact_bit) as exact:
            sturmian_window(coding, 0, 10**5)
        assert exact.call_count <= 4

    def test_temporaries_are_chunk_sized(self):
        # the window's own byte per position plus a bounded number of
        # per-chunk arrays, whatever the window length
        size = 10**6
        sturmian_window(GOLDEN, 0, 64)
        tracemalloc.start()
        try:
            sturmian_window(GOLDEN, 0, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= size + 16 * sturmian._CHUNK


class TestRotationComplexity:
    def test_two_symbols(self):
        assert rotation_complexity(GOLDEN, 1)[0] == 2

    def test_linear_bound(self):
        counts = rotation_complexity(GOLDEN, 12)
        for n, p in enumerate(counts, start=1):
            assert p <= 2 * n + 2

    def test_stable_under_doubling(self):
        text = sturmian_window(GOLDEN, 0, 8192).to_string()
        a = collect_blocks(GOLDEN, 2)
        assert a == {text[i : i + 2] for i in range(8191)} and len(a) <= 6

    @pytest.mark.parametrize("n", [1, 7, 62, 63, 70])
    def test_blocks_are_the_sliced_orbit(self, n):
        # codes of 63 bits and more are Python ints
        text = sturmian_window(GOLDEN, 0, 1 << 15).to_string()
        assert collect_blocks(GOLDEN, n) == {text[i : i + n] for i in range(len(text) - n + 1)}

    def test_uncertified_partition_raises(self):
        # rational guard: at n = 4 the arc [0, 1/14) between the cuts 0 and
        # 1/2 - 3/7 is shorter than the 1/7 spacing of alpha = 1/7's orbit
        seventh = RotationCoding.from_real(Fraction(1, 7))
        with pytest.raises(PrecisionExhausted, match="alpha may be 1/7"):
            collect_blocks(seventh, 4)
        # gap rule: an interval 3 units wide has its two cuts n + 1 = 3 units apart
        a = Fraction(1, 3)
        narrow = RotationCoding(GOLDEN.alpha_fixed, 0, (a, a + Fraction(3, 2**128)))
        with pytest.raises(PrecisionExhausted, match="3 units apart"):
            collect_blocks(narrow, 2)

    def test_rational_alpha_whose_orbit_visits_every_arc(self):
        # at n = 3 every arc of alpha = 1/7 is at least 1/7 long, and at n = 10
        # every arc of 3/101 at least 3/101: one period of the orbit shows all
        for alpha, n, count in [(Fraction(1, 7), 3, 6), (Fraction(3, 101), 10, 20)]:
            q = alpha.denominator
            coding = RotationCoding.from_real(alpha, Fraction(1, 3 * q))
            text = sturmian_window(coding, 0, q + n - 1).to_string()
            blocks = collect_blocks(coding, n)
            assert len(blocks) == count and blocks == {text[i : i + n] for i in range(q)}

    def test_short_arc_far_along_the_orbit(self):
        # the arc [0, 2^-60 - 2^-100) codes 11...; the orbit from y = 1/2
        # first reaches it after about 2^98 steps, so no slice shows "11"
        alpha, b = Fraction(1, 3) + Fraction(1, 2**100), Fraction(1, 3) + Fraction(1, 2**60)
        coding = RotationCoding.from_real(alpha, Fraction(1, 2), (Fraction(0), b))
        assert "11" not in sturmian_window(coding, 0, 1 << 12).to_string()
        x = Fraction(1, 2**61)
        for n in (2, 3, 5):
            word = "".join(str(int((x + k * alpha) % 1 < b)) for k in range(n))
            blocks = collect_blocks(coding, n)
            assert word.startswith("11") and word in blocks and len(blocks) == 2 * n

    def test_whole_circle(self):
        coding = RotationCoding.golden(interval=(Fraction(0), Fraction(1)))
        assert collect_blocks(coding, 5) == {"11111"}

    def test_output_budget(self, monkeypatch):
        # the 2n blocks of n bits pass the window gate
        monkeypatch.setattr("bfree.sieve.MAX_WINDOW_BITS", 2 * 10 * 10)
        assert len(collect_blocks(GOLDEN, 10)) <= 20
        with pytest.raises(WindowTooLarge):
            collect_blocks(GOLDEN, 11)

    def test_complexity_counts_prefixes_of_one_walk(self):
        counts = rotation_complexity(GOLDEN, 20)
        assert counts == [len(collect_blocks(GOLDEN, n)) for n in range(1, 21)]

    @settings(max_examples=40, deadline=None)
    @given(
        delta=st.integers(-(1 << 88), 1 << 88),
        y=st.integers(0, (1 << 128) - 1),
        ends=st.lists(
            st.builds(Fraction, st.integers(0, 10), st.integers(1, 10)).filter(lambda f: f <= 1),
            min_size=2,
            max_size=2,
            unique=True,
        ),
        n=st.integers(1, 12),
    )
    def test_language_against_a_long_slice(self, delta, y, ends, n):
        # alpha within 2^-40 of golden: a 2^16-bit slice visits every arc
        interval = tuple(sorted(ends))
        coding = RotationCoding(GOLDEN.alpha_fixed + delta, y, interval)
        text = sturmian_window(coding, 0, 1 << 16).to_string()
        seen = {text[i : i + n] for i in range(len(text) - n + 1)}
        try:
            blocks = collect_blocks(coding, n)
        except PrecisionExhausted:
            return
        assert seen <= blocks
        assert blocks == seen
        assert collect_blocks(RotationCoding(coding.alpha_fixed, 0, interval), n) == blocks


class TestHereditaryClosure:
    def test_count_small(self):
        # closure of blocks {10, 01} adds 00, not 11
        assert hereditary_closure_count(["10", "01"]) == 3

    def test_blocks_of_one_length(self):
        # as bit masks "0" and "00" would both be 0: ["1", "11"] dominates 6
        # words, not the 4 distinct masks
        for blocks in (["1", "11"], ["10", "1"], ["12"], ["1 0"]):
            with pytest.raises(ValueError):
                hereditary_closure_count(blocks)
        assert hereditary_closure_count([]) == 0

    def test_estimate_is_density(self):
        assert hereditary_entropy_estimate(GOLDEN, 20) == 0.5

    def test_estimate_lower_bounds_closure_count(self):
        n = 10
        blocks = collect_blocks(GOLDEN, n)
        full = math.log2(hereditary_closure_count(blocks)) / n
        assert hereditary_entropy_estimate(GOLDEN, n) <= full

    def test_enumeration_budget(self, monkeypatch):
        assert hereditary_closure_count(["1111"]) == 16
        with pytest.raises(StateSpaceTooLarge):
            hereditary_closure_count(["1" * 25])
        # the sum over all blocks is refused before any block is enumerated
        monkeypatch.setattr("bfree.sturmian.MAX_DOMINATED_BITS", 4)
        assert hereditary_closure_count(["1111"]) == 16
        monkeypatch.setattr("bfree.sturmian._dominated_masks", None)
        with pytest.raises(StateSpaceTooLarge):
            hereditary_closure_count(iter(["1111", "1"]))


def _string_period(text):
    # reference: the least d dividing |text| with text a repetition of text[:d]
    n = len(text)
    return next(d for d in range(1, n + 1) if n % d == 0 and text == text[:d] * (n // d))


def _periodic_bits(system, lo, hi):
    # reference: the per-position gather, bit n = block[(n - offset) mod c]
    block, c = system.block, len(system.block)
    return [int(block.bits[(n - block.offset) % c]) for n in range(lo, hi)]


def _phase_loop_frequency(system, target, p):
    # reference: one window per phase j, summing the dominated phases' weights
    c, t = len(system.block), target.bits.tolist()
    total = Fraction(0)
    for j in range(c):
        window = _periodic_bits(system, j, j + len(t))
        if all(a <= b for a, b in zip(t, window)):
            kept = sum(t)
            total += p**kept * (1 - p) ** (sum(window) - kept)
    return total / c


@st.composite
def _minimal_systems(draw):
    text = draw(st.text("01", min_size=1, max_size=13).filter(lambda t: _string_period(t) == len(t)))
    return PeriodicHereditarySystem(BinaryWord.from_string(text, draw(st.integers(-50, 50))))


class TestPeriodicHereditarySystem:
    def test_minimal_period_enforced(self):
        with pytest.raises(NotMinimalPeriod):
            PeriodicHereditarySystem(BinaryWord.from_string("101101"))

    def test_period_matches_string_loop(self):
        # every block of length up to 12: refused with the least period d, or built
        for n in range(1, 13):
            for bits in itertools.product("01", repeat=n):
                text = "".join(bits)
                d = _string_period(text)
                block = BinaryWord.from_string(text, n - 6)
                if d == n:
                    assert PeriodicHereditarySystem(block).block == block
                else:
                    with pytest.raises(NotMinimalPeriod, match=rf"^block repeats with period {d} < {n}$"):
                        PeriodicHereditarySystem(block)

    @settings(max_examples=150, deadline=None)
    @given(
        system=_minimal_systems(),
        lo=st.one_of(
            st.integers(-100, 100),
            st.integers(2**63 - 2000, 2**63 + 2000),
            st.integers(-(2**63) - 2000, -(2**63) + 2000),
            st.integers(-(10**20), 10**20),
        ),
        extra=st.integers(0, 300),
    )
    def test_window_matches_gather(self, system, lo, extra):
        # at least 64 c bits, so the sieve's wheel takes the period
        hi = lo + 64 * len(system.block) + extra
        w = system.window(lo, hi)
        assert w.offset == lo and w.bits.tolist() == _periodic_bits(system, lo, hi)

    def test_window_budget(self, monkeypatch):
        system = two_mme_system()[0]
        monkeypatch.setattr("bfree.sieve.MAX_WINDOW_BITS", 100)
        assert len(system.window(10**20, 10**20 + 100)) == 100
        # refused before the sieve allocates its block
        monkeypatch.setattr("numpy.ones", None)
        monkeypatch.setattr("numpy.empty", None)
        with pytest.raises(WindowTooLarge):
            system.window(-50, 51)

    @pytest.mark.parametrize("lo, hi", [(5, 5), (5, 3)])
    def test_empty_window(self, lo, hi):
        with pytest.raises(ValueError, match="empty window"):
            two_mme_system()[0].window(lo, hi)

    def test_window_wraps(self):
        system = PeriodicHereditarySystem(BinaryWord.from_string("101"))
        assert system.window(-2, 4).to_string() == "011011"

    @pytest.mark.parametrize("lo", [10**20, -(10**20) - 5, 2**63 - 4])
    def test_window_past_int64(self, lo):
        for system in (*two_mme_system(), PeriodicHereditarySystem(BinaryWord.from_string("110", -5))):
            block, c = system.block, len(system.block)
            expected = [block.bits[(pos - block.offset) % c] for pos in range(lo, lo + 20)]
            w = system.window(lo, lo + 20)
            assert w.offset == lo and w.bits.tolist() == expected


class TestTwoMME:
    def test_blocks(self):
        a, b = two_mme_system()
        assert a.block.to_string() == "101001000"
        assert b.block.to_string() == "101000100"

    def test_entropies(self):
        from bfree.entropy import htop_periodic_hereditary

        a, b = two_mme_system()
        assert htop_periodic_hereditary(a.block).exact == Fraction(1, 3)
        assert htop_periodic_hereditary(b.block).exact == Fraction(1, 3)

    def test_target_frequency_a(self):
        a, _ = two_mme_system()
        assert mme_block_frequency(a, a.block, Fraction(1, 2)) == Fraction(1, 72)

    def test_target_frequency_b_vanishes(self):
        a, b = two_mme_system()
        assert mme_block_frequency(b, a.block, Fraction(1, 2)) == 0

    def test_all_zero_target(self):
        a, _ = two_mme_system()
        zero = BinaryWord.from_string("0" * 9)
        assert mme_block_frequency(a, zero, Fraction(1, 2)) == Fraction(1, 8)

    def test_separation_for_every_p(self):
        a, b = two_mme_system()
        for p in (Fraction(1, 10), Fraction(1, 3), Fraction(9, 10)):
            assert mme_block_frequency(a, a.block, p) > 0
            assert mme_block_frequency(b, a.block, p) == 0

    def test_distribution_sums_to_one(self):
        a, _ = two_mme_system()
        total = Fraction(0)
        for mask in range(1 << 9):
            target = BinaryWord([mask >> i & 1 for i in range(9)])
            total += mme_block_frequency(a, target, Fraction(1, 2))
        assert total == 1

    @settings(max_examples=150, deadline=None)
    @given(system=_minimal_systems(), data=st.data())
    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])
    def test_frequency_matches_phase_loop(self, p, system, data):
        c = len(system.block)
        L = data.draw(st.integers(1, 3 * c))
        # a thinned phase window, so that some phase dominates the target
        j = data.draw(st.integers(0, c - 1))
        mask = data.draw(st.lists(st.integers(0, 1), min_size=L, max_size=L))
        target = BinaryWord([a & b for a, b in zip(_periodic_bits(system, j, j + L), mask)])
        assert mme_block_frequency(system, target, p) == _phase_loop_frequency(system, target, p)

    def test_empty_target(self):
        with pytest.raises(ValueError, match="empty window"):
            mme_block_frequency(two_mme_system()[0], BinaryWord([]), Fraction(1, 2))

    def test_target_too_long(self, monkeypatch):
        # 19 zeros, and all nine phases strike one: at p < 1 the DP stores
        # min(2^19, 9 + 1) = 10 states, so a budget of 9 refuses the target
        a, _ = two_mme_system()
        target = BinaryWord.from_string("0" * 19)
        steps = []
        step = measures._cover_step
        monkeypatch.setattr(measures, "_cover_step", lambda *args: steps.append(args) or step(*args))
        monkeypatch.setattr(measures, "MAX_COVER_STATES", 9)
        with pytest.raises(TooManyZeros):
            mme_block_frequency(a, target, Fraction(1, 2))
        assert steps == []  # refused before any state was built
        monkeypatch.setattr(measures, "MAX_COVER_STATES", 10)
        half = Fraction(1, 2)
        assert mme_block_frequency(a, target, half) == _phase_loop_frequency(a, target, half)
        assert steps

    def test_set_up_budget(self, monkeypatch):
        # six zero phases times nine target bits: 54 set-up steps
        a, _ = two_mme_system()
        half = Fraction(1, 2)
        monkeypatch.setattr(measures, "MAX_COVER_SETUP", 54)
        assert mme_block_frequency(a, a.block, half) == Fraction(1, 72)
        monkeypatch.setattr(measures, "MAX_COVER_SETUP", 53)

        def no_set_up(*args, **kwargs):
            raise AssertionError("set-up ran")

        monkeypatch.setattr(measures, "_check_window", no_set_up)
        # refused before the per-position cylinder is built, too
        monkeypatch.setattr(sturmian, "CylinderSpec", no_set_up)
        with pytest.raises(BudgetExceeded, match="set-up of 54 steps exceeds budget 53"):
            mme_block_frequency(a, a.block, half)

    def test_long_target_within_the_set_up_budget(self):
        # a 2000-bit target of a random period-1000 block, about 500 zero phases
        rng = np.random.default_rng(4)
        block = "0" + "".join(map(str, rng.integers(0, 2, 998))) + "1"
        system = PeriodicHereditarySystem(BinaryWord.from_string(block))
        bits = system.window(17, 2017).bits & rng.integers(0, 2, 2000).astype(np.uint8)
        assert len(system.residue_system.classes[0]) * 2000 <= measures.MAX_COVER_SETUP
        assert mme_block_frequency(system, BinaryWord(bits), Fraction(1, 2)) > 0

    def test_sampler_matches_exact_law(self):
        a, _ = two_mme_system()
        windows = sample_periodic_windows(a, 0.5, 9, 200000, seed=5)
        target = a.block.bits
        freq = float((windows == target).all(axis=1).mean())
        assert abs(freq - 1 / 72) < 0.002


class TestSamplePeriodicWindows:
    @staticmethod
    def _profile(system):
        # position j of the periodic point is 0 iff phase j forbids residue 0
        c = len(system.block)
        zeros = frozenset(np.flatnonzero(system.window(0, c).bits == 0).tolist())
        return SAProfile(validate_bset([c]), (len(zeros),), (zeros,))

    @pytest.mark.parametrize("count", [0, 5, 1024, 3000])
    @pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 2)])
    def test_equals_generalized_sampler(self, p, count):
        shifted = PeriodicHereditarySystem(BinaryWord.from_string("101001000", 4))
        for system in (*two_mme_system(), shifted):
            rows = sample_periodic_windows(system, p, 18, count, seed=41)
            batch = sample_generalized(self._profile(system), p, 0, 18, count, seed=41)
            expected = np.array([w.bits for w in batch.words], dtype=np.uint8)
            assert rows.dtype == np.uint8 and rows.shape == (count, 18)
            assert np.array_equal(rows, expected.reshape(count, 18))

    @pytest.mark.parametrize("block, offset", [("1", 0), ("0", 0), ("101001000", 4), ("110", -5)])
    def test_rows_are_phase_windows(self, block, offset):
        system = PeriodicHereditarySystem(BinaryWord.from_string(block, offset))
        phases = {system.window(j, j + 20).to_string() for j in range(len(block))}
        rows = sample_periodic_windows(system, 1, 20, 400, seed=3)
        assert {(r + ord("0")).tobytes().decode("ascii") for r in rows} == phases
        masked = sample_periodic_windows(system, Fraction(1, 3), 20, 400, seed=3)
        assert (masked <= rows).all()
        assert not sample_periodic_windows(system, 0, 20, 400, seed=3).any()

    @pytest.mark.parametrize("p", [1.5, -1, Fraction(-1, 2), Fraction(3, 2)])
    def test_p_outside_unit_interval(self, p):
        with pytest.raises(ValueError):
            sample_periodic_windows(two_mme_system()[0], p, 9, 10, seed=1)

    def test_rows_are_read_only(self):
        rows = sample_periodic_windows(two_mme_system()[0], 1, 9, 4, seed=1)
        with pytest.raises(ValueError):
            rows[0, 0] = 1


class TestTransitiveClosurePoint:
    @staticmethod
    def _blocks_of(n):
        return admissible_words(validate_bset([2]), n)

    def test_regression_fixture(self):
        w = transitive_closure_point(self._blocks_of, 0.5, 1, 120)
        assert w.to_string() == TRANSITIVE_FIXTURE

    def test_empty(self):
        assert len(transitive_closure_point(self._blocks_of, 0.5, 1, 0)) == 0

    def test_stage_budget(self):
        with pytest.raises(BudgetExceeded):
            transitive_closure_point(lambda n: iter(()), 0.5, 1, 10)

    def test_stage_layout(self):
        # stage 1 on the catalogue {"1"}: "1", then a zero run; stage 2 on
        # the prefix "10": a zero run, then the catalogue {"11"} and the
        # words under "10" in lexicographic order, each followed by one
        w = transitive_closure_point(lambda n: iter(["1" * n]), 1.0, 1, 16)
        assert w.to_string() == "10" + "00" + "11" + "00" + "00" + "00" + "10" + "00"

    def test_negative_length(self):
        with pytest.raises(ValueError):
            transitive_closure_point(self._blocks_of, 0.5, 1, -7)

    def test_zero_runs_cut_to_length(self):
        # L = 10^12, so a whole zero run after "11" would be 2 * 10^12 bits
        tracemalloc.start()
        try:
            w = transitive_closure_point(lambda n: iter(["1" * n]), 1e-12, 2, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.to_string() == "11" + "0" * 8
        assert peak < 1 << 16

    def test_length_budget(self):
        # refused before stage 1 asks for a single block
        with pytest.raises(WindowTooLarge):
            transitive_closure_point(None, 0.5, 1, MAX_WINDOW_BITS + 1)

    def test_prefix_stability(self):
        long = transitive_closure_point(self._blocks_of, 0.5, 1, 2000).to_string()
        assert long.startswith(TRANSITIVE_FIXTURE)

    def test_catalogue_blocks_occur(self):
        long = transitive_closure_point(self._blocks_of, 0.5, 1, 3000).to_string()
        for n in (1, 2, 3, 4):
            assert all(b in long for b in self._blocks_of(n))

    def test_hereditary_consistency(self):
        # any word under an occurring factor occurs somewhere too
        long = transitive_closure_point(self._blocks_of, 0.5, 1, 3000).to_string()
        for n in (2, 3):
            factors = {long[i : i + n] for i in range(len(long) - n + 1)}
            for f in factors:
                ones = [i for i, c in enumerate(f) if c == "1"]
                for mask in range(1 << len(ones)):
                    w = list(f)
                    for j, pos in enumerate(ones):
                        if not mask >> j & 1:
                            w[pos] = "0"
                    assert "".join(w) in factors


def _zeroed_by_position(system, primes, lo, hi):
    # reference: the per-position loop over block indices n = pos // c
    bits = system.window(lo, hi).bits.copy()
    c = len(system.block)
    prods = list(itertools.accumulate(primes, operator.mul))
    for pos in range(lo, hi):
        n = pos // c
        for k, P in enumerate(prods, start=1):
            if n % P == (k - 1) % P and n != k - 1:
                bits[pos - lo] = 0
                break
    return bits


def _zeroed_by_index(system, primes, lo, hi):
    # reference: the per-position block index gather zeroed[(i + lo % c) // c],
    # with zeroed from a vectorized test of each block index
    c = len(system.block)
    n = np.arange(lo // c, (hi - 1) // c + 1)
    zeroed = np.zeros(len(n), dtype=bool)
    for k, P in enumerate(itertools.accumulate(primes, operator.mul), start=1):
        zeroed |= (n % P == (k - 1) % P) & (n != k - 1)
    index = (np.arange(hi - lo) + lo % c) // c
    return np.where(zeroed[index], 0, system.window(lo, hi).bits)


class TestMinimalSubsetVariant:
    def test_matches_position_loop(self):
        rng = random.Random(5)
        blocks = ["1", "10", "1101", "101001000", "101000100"]
        pool = [2, 3, 5, 7, 11, 13, 10**12 + 39, 10**20 + 39]
        for _ in range(600):
            block = rng.choice(blocks)
            system = PeriodicHereditarySystem(BinaryWord.from_string(block, rng.randrange(-9, 10)))
            primes = sorted(rng.sample(pool, rng.randrange(0, 6)))
            lo = rng.randrange(-400, 400)
            hi = lo + rng.randrange(1, 500)
            w = minimal_subset_variant(system, primes, lo, hi)
            assert w.offset == lo
            assert np.array_equal(w.bits, _zeroed_by_position(system, primes, lo, hi))

    def test_matches_position_loop_past_int64(self):
        rng = random.Random(6)
        blocks = ["1", "10", "101001000", "101000100"]
        # products of these land on block indices near 10^20 / c
        pool = [2, 3, 5, 10**20 // 9 + 1, 10**20 // 2 + 3, 10**20 + 39]
        for _ in range(300):
            block = rng.choice(blocks)
            system = PeriodicHereditarySystem(BinaryWord.from_string(block, rng.randrange(-9, 10)))
            primes = sorted(rng.sample(pool, rng.randrange(0, 4)))
            lo = rng.choice([1, -1]) * 10**20 + rng.randrange(-400, 400)
            hi = lo + rng.randrange(1, 500)
            w = minimal_subset_variant(system, primes, lo, hi)
            assert w.offset == lo
            assert np.array_equal(w.bits, _zeroed_by_position(system, primes, lo, hi))
        # block index 10^20 + 39 = P itself is zeroed, its neighbours are not
        one = PeriodicHereditarySystem(BinaryWord.from_string("1"))
        w = minimal_subset_variant(one, [10**20 + 39], 10**20 + 30, 10**20 + 50)
        assert w.to_string() == "1" * 9 + "0" + "1" * 10

    @pytest.mark.parametrize(
        "block, primes, lo",
        [
            ("101001000", [2, 3, 5, 7], -(10**12) - 5),
            ("10", [2, 3, 5], 10**12 + 3),
            ("1101", [2, 3], -777),
        ],
    )
    def test_matches_index_formula(self, block, primes, lo):
        system = PeriodicHereditarySystem(BinaryWord.from_string(block))
        hi = lo + 50_000
        expected = _zeroed_by_index(system, primes, lo, hi)
        assert np.array_equal(minimal_subset_variant(system, primes, lo, hi).bits, expected)

    def test_matches_index_formula_at_random(self):
        # products of these primes stay within the formula's int64 indices
        rng = random.Random(7)
        blocks = ["1", "10", "1101", "101001000", "101000100"]
        for _ in range(200):
            system = PeriodicHereditarySystem(BinaryWord.from_string(rng.choice(blocks), rng.randrange(-9, 10)))
            primes = sorted(rng.sample([2, 3, 5, 7, 11, 13, 17], rng.randrange(0, 5)))
            lo = rng.randrange(-(10**6), 10**6)
            hi = lo + rng.randrange(1, 5000)
            w = minimal_subset_variant(system, primes, lo, hi)
            assert np.array_equal(w.bits, _zeroed_by_index(system, primes, lo, hi))

    def test_a_few_bytes_per_position(self):
        # one sieved window, a byte per position, with no per-block flags
        # and no block-padded copy; a one-bit block (c = 1) has one block
        # per position, so flags would cost as much as the window
        lo, size = -(10**12), 1 << 20
        for block in ("101001000", "1"):
            system = PeriodicHereditarySystem(BinaryWord.from_string(block))
            minimal_subset_variant(system, [2, 3, 5, 7], lo, lo + 64)
            tracemalloc.start()
            try:
                minimal_subset_variant(system, [2, 3, 5, 7], lo, lo + size)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= size + size // 4, (block, peak)

    def test_zeroes_even_blocks(self):
        a, _ = two_mme_system()
        w = minimal_subset_variant(a, [2], 0, 45)
        chunks = [w.to_string()[i : i + 9] for i in range(0, 45, 9)]
        assert chunks[0] == chunks[1] == chunks[3] == "101001000"
        assert chunks[2] == chunks[4] == "0" * 9

    def test_empty_primes_unmodified(self):
        a, _ = two_mme_system()
        assert minimal_subset_variant(a, [], 0, 27) == a.window(0, 27)

    def test_unbounded_zero_runs(self):
        system = PeriodicHereditarySystem(BinaryWord.from_string("1"))
        w = minimal_subset_variant(system, [2, 3, 5, 7], 0, 4000).to_string()
        # runs of zeros get longer and longer while ones keep returning
        longest = max(len(r) for r in w.split("1") if r)
        assert longest >= 5
        assert w.count("1") > 1000

    def test_primes_sorted(self):
        a, _ = two_mme_system()
        with pytest.raises(ValueError):
            minimal_subset_variant(a, [3, 2], 0, 9)
        with pytest.raises(ValueError):
            minimal_subset_variant(a, [0, 3], 0, 9)


class TestCloseAlphaContainment:
    def test_small_perturbation(self):
        beta = RotationCoding(GOLDEN.alpha_fixed + (1 << 108))
        assert close_alpha_block_containment(GOLDEN, beta, 4)

    def test_equal(self):
        assert close_alpha_block_containment(GOLDEN, GOLDEN, 6)

    def test_gap_too_large(self):
        beta = RotationCoding.from_real(Fraction(9, 10))
        with pytest.raises(PreconditionUnmet):
            close_alpha_block_containment(GOLDEN, beta, 10)

    @pytest.mark.parametrize("n", [0, -3])
    def test_block_length_below_one(self, n):
        with pytest.raises(ValueError):
            close_alpha_block_containment(GOLDEN, GOLDEN, n)

    def test_bad_quotients(self):
        # alpha = 1/4 has a partial quotient of 4
        with pytest.raises(PreconditionUnmet):
            close_alpha_block_containment(
                RotationCoding.from_real(Fraction(1, 4)),
                RotationCoding.from_real(Fraction(1, 4)),
                2,
            )
