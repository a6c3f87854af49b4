import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfree.core import BinaryWord, BSet, OdometerPoint, Residues, squarefree_family, validate_bset
from bfree.errors import EmptyWord, WindowTooLarge
from bfree.measures import _sample, sample_mirsky
from bfree.sieve import (
    _SEGMENT_BYTES,
    SAProfile,
    _coding,
    _packed_sieve,
    _sieve,
    eta_window,
    phi_sa_window,
    phi_window,
)
from sieve_oracle import coding_oracle


def brute_eta(moduli, lo, hi):
    return "".join(
        "1" if all(n % b for b in moduli) else "0" for n in range(lo, hi)
    )


class TestEtaWindow:
    def test_23(self):
        assert eta_window(validate_bset([2, 3]), 0, 6).to_string() == "010001"

    def test_odd_indicator(self):
        assert eta_window(validate_bset([2]), 0, 4).to_string() == "0101"

    def test_squares(self):
        assert eta_window(validate_bset([4, 9, 25]), 1, 5).to_string() == "1110"

    def test_window_budget(self, monkeypatch):
        monkeypatch.setattr("bfree.sieve.MAX_WINDOW_BITS", 10)
        assert len(eta_window(validate_bset([2]), 0, 10)) == 10
        with pytest.raises(WindowTooLarge):
            eta_window(validate_bset([2]), 0, 100)

    @given(
        st.sets(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=3),
        st.integers(-200, 200),
        st.integers(1, 80),
    )
    @settings(max_examples=50)
    def test_matches_divisibility(self, mods, lo, span):
        bset = validate_bset(sorted(mods))
        assert eta_window(bset, lo, lo + span).to_string() == brute_eta(
            bset.moduli, lo, lo + span
        )

    def test_full_period_one_count_constant(self):
        # every full-period window carries exactly prod(b_k - 1) ones
        bset = validate_bset([2, 3, 5])
        L = bset.period
        for m in range(-3, 4):
            w = eta_window(bset, m * L, (m + 1) * L)
            assert w.ones == 8


class TestPhiWindow:
    def test_zero_point_is_eta(self):
        bset = validate_bset([2, 3])
        omega = OdometerPoint(bset, (0, 0))
        assert phi_window(omega, 0, 6).to_string() == "010001"

    def test_shifted_point(self):
        bset = validate_bset([2, 3])
        assert phi_window(OdometerPoint(bset, (1, 0)), 0, 6).to_string() == "001010"

    def test_single_modulus(self):
        bset = validate_bset([2])
        assert phi_window(OdometerPoint(bset, (1,)), 0, 4).to_string() == "1010"

    @given(
        st.integers(0, 29),
        st.integers(-40, 40),
        st.integers(1, 60),
    )
    @settings(max_examples=60)
    def test_equivariance(self, seed_residue, lo, span):
        # advancing the point equals shifting the window
        bset = validate_bset([2, 3, 5])
        omega = OdometerPoint(bset, (seed_residue, seed_residue, seed_residue))
        hi = lo + span
        left = phi_window(omega.advance(1), lo, hi)
        right = phi_window(omega, lo + 1, hi + 1).shifted(-1)
        assert left == right


class TestSAProfile:
    def test_validation(self):
        bset = validate_bset([4])
        with pytest.raises(ValueError):
            SAProfile(bset, (4,), (frozenset({0, 1, 2, 3}),))
        with pytest.raises(ValueError):
            SAProfile(bset, (2,), (frozenset({0}),))

    def test_plain(self):
        prof = SAProfile.plain(validate_bset([2, 3]))
        assert prof.s == (1, 1)
        assert prof.a == (frozenset({0}), frozenset({0}))

    def test_odometer_moduli(self):
        bset = validate_bset([4])
        assert SAProfile(bset, (2,), (frozenset({0, 2}),)).odometer_moduli == (2,)
        assert SAProfile(bset, (2,), (frozenset({0, 1}),)).odometer_moduli == (4,)

    def test_free_density(self):
        prof = SAProfile(
            validate_bset([4, 9]),
            (2, 3),
            (frozenset({0, 2}), frozenset({0, 3, 6})),
        )
        assert prof.free_density() == Fraction(1, 3)


class TestPhiSaWindow:
    def test_degenerates_to_eta(self):
        prof = SAProfile.plain(validate_bset([2, 3]))
        assert phi_sa_window(prof, (0, 0), 0, 6).to_string() == "010001"

    def test_two_forbidden_classes(self):
        prof = SAProfile(validate_bset([4]), (2,), (frozenset({0, 2}),))
        assert phi_sa_window(prof, (0,), 0, 4).to_string() == "0101"

    def test_adjacent_classes(self):
        prof = SAProfile(validate_bset([4]), (2,), (frozenset({0, 1}),))
        assert phi_sa_window(prof, (0,), 0, 8).to_string() == "00110011"

    def test_lift_invariance(self):
        # any lift of the odometer coordinate gives the same window
        prof = SAProfile(validate_bset([4]), (2,), (frozenset({0, 2}),))
        assert phi_sa_window(prof, (1,), 0, 8) == phi_sa_window(prof, (3,), 0, 8)

    def test_full_period_density_exact(self):
        prof = SAProfile(
            validate_bset([4, 9]),
            (2, 3),
            (frozenset({0, 2}), frozenset({0, 3, 6})),
        )
        for N in (1, 2, 5):
            w = phi_sa_window(prof, (0, 0), 0, N * 36)
            assert w.density() == prof.free_density()

    def test_point_over_other_moduli_refused(self):
        # the coordinates of a point over other moduli would be read as the
        # profile's, giving a coding of no point at all
        prof = SAProfile.plain(validate_bset([4, 9]))
        with pytest.raises(ValueError, match="moduli"):
            phi_sa_window(prof, OdometerPoint(validate_bset([5, 7]), (3, 4)), 0, 20)
        assert phi_sa_window(prof, OdometerPoint(prof.bset, (3, 4)), 0, 20) == phi_sa_window(
            prof, (3, 4), 0, 20
        )


class TestOneDensity:
    def test_values(self):
        assert BinaryWord.from_string("010001").density() == Fraction(1, 3)
        assert BinaryWord.from_string("0000").density() == 0
        assert BinaryWord.from_string("1111").density() == 1

    def test_empty(self):
        import numpy as np

        with pytest.raises(EmptyWord):
            BinaryWord(np.zeros(0, dtype=np.uint8)).density()


@st.composite
def profiles(draw, max_period=None):
    # pairwise coprime moduli, each with s_k of its classes forbidden; with
    # max_period, moduli past that product are skipped
    moduli = []
    for b in draw(st.lists(st.sampled_from([2, 3, 4, 5, 7, 9, 11, 13, 25]), min_size=1, max_size=4)):
        if all(math.gcd(b, c) == 1 for c in moduli) and (
            max_period is None or not moduli or math.prod(moduli) * b <= max_period
        ):
            moduli.append(b)
    moduli.sort()
    a = tuple(
        frozenset(draw(st.lists(st.integers(0, b - 1), min_size=1, max_size=b - 1, unique=True)))
        for b in moduli
    )
    return SAProfile(validate_bset(moduli), tuple(map(len, a)), a)


# Row counts of a sampled block: a few rows, or a multiple of the odometer
# size P' plus a step, so that P' - 1, P', P' + 1 and 2P' rows are drawn
# and blocks with P' <= count are cut from one sieved line.
SAMPLE_COUNTS = st.sampled_from([(0, 1), (0, 2), (0, 5), (1, -1), (1, 0), (1, 1), (2, 0)])


def assert_sampled_rows(profile, lo, span, counts, seed):
    """``_sample`` rows over [lo, lo + span) against the modular oracle."""
    moduli, hi = profile.bset.moduli, lo + span
    times, step = counts
    count = times * math.prod(profile.odometer_moduli) + step
    block, omegas = _sample(profile.residue_system, Fraction(1), lo, hi, count, seed)
    assert block.shape == (count, span)
    oracle = {}
    for row, omega in zip(block, map(tuple, omegas.tolist())):
        if omega not in oracle:
            oracle[omega] = coding_oracle(moduli, profile.a, omega, lo, hi)
        assert np.array_equal(row, oracle[omega])


def assert_one_row_coding(profile, residues, lo, span, kind):
    """One window over [lo, lo + span) against the modular oracle.

    ``kind`` picks ``eta_window`` (residues ignored), ``phi_window`` or
    ``phi_sa_window`` over the profile's moduli.
    """
    bset, hi = profile.bset, lo + span
    residues, classes = residues[: len(bset)], [(0,)] * len(bset)
    if kind == "eta":
        residues = [0] * len(bset)
        word = eta_window(bset, lo, hi)
    elif kind == "phi":
        word = phi_window(OdometerPoint(bset, residues), lo, hi)
    else:
        classes = profile.a
        word = phi_sa_window(profile, residues, lo, hi)
    assert word.offset == lo
    assert np.array_equal(word.bits, coding_oracle(bset.moduli, classes, residues, lo, hi))


class TestWheelSieve:
    """Windows long enough to prefill the smallest moduli by the wheel.

    A window of L bits tiles the wheel once L >= 64 * b_1, so spans up to
    3 * 10^4 bits over moduli up to 25 reach it, mostly with L not a
    multiple of the wheel's period.
    """

    @given(
        profiles(),
        st.lists(st.integers(-(10**20), 10**20), min_size=4, max_size=4),
        st.one_of(st.integers(-(2**70), 2**70), st.integers(-(2**63) - 40_000, -(2**63))),
        st.integers(1, 30_000),
    )
    @example(SAProfile.plain(validate_bset([2, 3, 5, 7])), [0] * 4, -(2**64) - 3, 64 * 210 + 11)
    @example(SAProfile.plain(squarefree_family(3)), [10**20] * 4, 2**63 - 5, 64 * 900 + 899)
    @settings(max_examples=80, deadline=None)
    def test_codings_match_modular_oracle(self, profile, residues, lo, span):
        moduli, residues = profile.bset.moduli, residues[: len(profile.bset)]
        word = phi_sa_window(profile, residues, lo, lo + span)
        assert word.offset == lo
        assert np.array_equal(word.bits, coding_oracle(moduli, profile.a, residues, lo, lo + span))

    def test_eta_and_phi_past_the_wheel(self):
        sf4 = squarefree_family(4)
        lo, hi = -(2**65) - 7, -(2**65) + 64 * 44100 + 101
        point = OdometerPoint(sf4, (3, 10**20, 17, 48))
        assert np.array_equal(
            eta_window(sf4, lo, hi).bits, coding_oracle(sf4.moduli, [(0,)] * 4, [0] * 4, lo, hi)
        )
        assert np.array_equal(
            phi_window(point, lo, hi).bits,
            coding_oracle(sf4.moduli, [(0,)] * 4, point.residues, lo, hi),
        )

    @given(
        profiles(max_period=200),
        st.integers(-(2**66), 2**66),
        st.integers(1, 8_000),
        SAMPLE_COUNTS,
        st.integers(0, 2**32),
    )
    # moduli that are not coprime: the odometer is not cyclic, every row is sieved
    @example(SAProfile.plain(BSet((4, 6))), -(2**65), 64 * 4 + 3, (2, 0), 7)
    @settings(max_examples=40, deadline=None)
    def test_sampled_rows_match_modular_oracle(self, profile, lo, span, counts, seed):
        assert_sampled_rows(profile, lo, span, counts, seed)

    def test_budget_refused_before_allocation(self, monkeypatch):
        sf4 = squarefree_family(4)
        monkeypatch.setattr("bfree.sieve.MAX_WINDOW_BITS", 64 * 900)
        assert len(eta_window(sf4, 0, 64 * 900)) == 64 * 900

        def allocate(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        for name in ("empty", "ones"):
            monkeypatch.setattr(np, name, allocate)
        with pytest.raises(WindowTooLarge):
            eta_window(sf4, 0, 64 * 900 + 1)
        with pytest.raises(WindowTooLarge):
            phi_sa_window(SAProfile.plain(sf4), (1, 2, 3, 4), 5, 5 + 64 * 900 + 1)
        with pytest.raises(ValueError, match="empty window"):
            eta_window(sf4, 7, 7)

    def test_wheel_windows_are_read_only(self):
        profile = SAProfile(validate_bset([4, 9]), (2, 3), (frozenset({0, 2}), frozenset({1, 4, 7})))
        for word in (
            eta_window(squarefree_family(4), 3, 3 + 64 * 900 + 5),
            phi_sa_window(profile, (1, 5), -(2**64), -(2**64) + 5000),
        ):
            with pytest.raises(ValueError):
                word.bits[0] = 1
            # neither the bits nor any array they view, nor the packed store
            array = word.bits
            while isinstance(array, np.ndarray):
                assert not array.flags.writeable
                array = array.base
            assert not word._packed.flags.writeable


class TestSegmentedSieve:
    """Windows on both sides of a segment shrunk to 64 to 700 bytes.

    A one-row window of more than ``_SEGMENT_BYTES`` positions is the
    packed kernel's, built in segments of ``_SEGMENT_BYTES`` packed bytes,
    so with the constant shrunk most windows below cross segment
    boundaries; a shorter one is the byte kernel's row, with the wheel
    engaged once L >= 64 * b_1 and without it below that.  The byte
    kernel's block of several rows is never cut.
    """

    @given(
        profiles(),
        st.lists(st.integers(-(10**20), 10**20), min_size=4, max_size=4),
        st.one_of(
            st.integers(-(2**70), 2**70),
            st.integers(-(2**63) - 40_000, -(2**63)),
            st.integers(2**63 - 40_000, 2**63),
        ),
        st.integers(1, 30_000),
        st.integers(64, 700),
        st.sampled_from(["eta", "phi", "phi_sa"]),
    )
    @example(SAProfile.plain(validate_bset([2, 3, 5, 7])), [0] * 4, -(2**64) - 3, 64 * 210 + 11, 500, "eta")
    @example(SAProfile.plain(squarefree_family(3)), [10**20] * 4, 2**63 - 5, 64 * 900 + 899, 300, "phi")
    @settings(max_examples=80, deadline=None)
    def test_one_row_codings_match_modular_oracle(self, profile, residues, lo, span, segment, kind):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("bfree.sieve._SEGMENT_BYTES", segment)
            assert_one_row_coding(profile, residues, lo, span, kind)

    @pytest.mark.parametrize(
        "moduli, segment, span",
        [
            # one mask of P = 210, 105 bytes; 1682 packed bytes make three
            # segments of 500 and a last one of 182 that starts mid-period
            ([2, 3, 5, 7], 500, 64 * 210 + 11),
            # the mask of P = 44100, 11025 bytes, is longer than a segment,
            # so each segment of 300 bytes is a slice of one or two periods
            ([4, 9, 25, 49], 300, 64 * 44100 + 101),
            # masks of 9, 25 and 49 bytes over segments of 512 and 434 bytes,
            # and the last byte holds one bit (a 1 at this point): a wrong
            # padding mask would clear it
            ([4, 9, 25, 49], 512, 15 * 504 + 1),
        ],
    )
    def test_last_segment_shorter_than_a_period(self, monkeypatch, moduli, segment, span):
        monkeypatch.setattr("bfree.sieve._SEGMENT_BYTES", segment)
        bset, lo = validate_bset(moduli), -(2**65) - 7
        point = OdometerPoint(bset, (1, 10**20, 3, 5)[: len(moduli)])
        assert np.array_equal(
            phi_window(point, lo, lo + span).bits,
            coding_oracle(bset.moduli, [(0,)] * len(moduli), point.residues, lo, lo + span),
        )

    @given(
        profiles(max_period=200),
        st.integers(-(2**66), 2**66),
        st.integers(1, 8_000),
        SAMPLE_COUNTS,
        st.integers(0, 2**32),
        st.integers(64, 700),
    )
    @example(SAProfile.plain(BSet((4, 6))), 2**64 + 1, 3000, (2, 0), 8, 300)
    @settings(max_examples=40, deadline=None)
    def test_sampled_rows_match_modular_oracle(self, profile, lo, span, counts, seed, segment):
        # the line a block of P' or more rows is cut from is a one-row
        # window, packed when longer than a segment; any other block, of
        # one row or several, is the byte kernel's, never cut
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("bfree.sieve._SEGMENT_BYTES", segment)
            assert_sampled_rows(profile, lo, span, counts, seed)

    def test_empty_block_of_long_rows(self):
        # zero rows pass any budget, however long the rows
        sf4 = squarefree_family(4)
        block, omegas = _sample(sf4.residue_system, Fraction(1), 0, 2**62, 0, 1)
        assert block.shape == (0, 2**62) and omegas.shape == (0, 4)

    def test_multi_segment_budget_refused_before_allocation(self, monkeypatch):
        sf4, budget = squarefree_family(4), 4 * 64 * 900
        monkeypatch.setattr("bfree.sieve._SEGMENT_BYTES", 512)
        monkeypatch.setattr("bfree.sieve.MAX_WINDOW_BITS", budget)
        # at the budget the window is built, packed across 57 segments
        assert np.array_equal(
            eta_window(sf4, 5, 5 + budget).bits, coding_oracle(sf4.moduli, [(0,)] * 4, [0] * 4, 5, 5 + budget)
        )

        def allocate(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        for name in ("empty", "ones"):
            monkeypatch.setattr(np, name, allocate)
        with pytest.raises(WindowTooLarge):
            eta_window(sf4, 5, 5 + budget + 1)
        with pytest.raises(WindowTooLarge):
            _sample(sf4.residue_system, Fraction(1), 0, budget // 2 + 1, 2, 9)


def assert_packed(word, expected):
    """``word`` holds exactly the bits ``expected``, packed with zero padding."""
    length = len(expected)
    assert len(word) == length and word.ones == int(expected.sum())
    data = word.pack()
    assert data == np.packbits(expected, bitorder="little").tobytes()
    assert len(data) == (length + 7) // 8
    if length % 8:
        assert data[-1] >> length % 8 == 0
    assert np.array_equal(word.bits, expected)


class TestPackedWindows:
    """A window longer than one segment is packed into (L + 7) // 8 bytes.

    With the segment shrunk to 64-700 bytes, windows of m segments' worth
    of positions plus or minus up to 8 bits end at every L mod 8, on both
    sides of one segment; with ``_WHEEL_MAX`` at 1 every modulus is above
    the cap.  The examples run at the real segment size.  The packed
    kernel's own test spans several output segments of 2-300 bytes.
    """

    @given(
        profiles(),
        st.lists(st.integers(-(10**20), 10**20), min_size=4, max_size=4),
        st.sampled_from([0, 2**63, -(2**63), -(10**20)]),
        st.integers(-9, 9),
        st.integers(64, 700),
        st.integers(1, 3),
        st.integers(-8, 8),
        st.booleans(),
        st.sampled_from(["eta", "phi", "phi_sa"]),
    )
    @example(SAProfile.plain(squarefree_family(4)), [3] * 4, -(2**63), 0, None, 1, -3, True, "eta")
    @example(SAProfile.plain(squarefree_family(4)), [5] * 4, -(10**20), 1, None, 1, 5, False, "phi")
    @example(SAProfile.plain(validate_bset([2, 3, 5, 7])), [0] * 4, 2**63, -2, None, 2, 7, True, "eta")
    @settings(max_examples=60, deadline=None)
    def test_packed_windows_match_modular_oracle(self, profile, residues, base, shift, segment, m, k, wheel, kind):
        # segment None, in the examples only, keeps the real _SEGMENT_BYTES
        span = max(1, m * (segment or _SEGMENT_BYTES) + k)
        bset, lo = profile.bset, base + shift
        residues, classes = residues[: len(bset)], [(0,)] * len(bset)
        with pytest.MonkeyPatch.context() as patch:
            if segment is not None:
                patch.setattr("bfree.sieve._SEGMENT_BYTES", segment)
            if not wheel:
                patch.setattr("bfree.sieve._WHEEL_MAX", 1)
            if kind == "eta":
                residues = [0] * len(bset)
                word = eta_window(bset, lo, lo + span)
            elif kind == "phi":
                word = phi_window(OdometerPoint(bset, residues), lo, lo + span)
            else:
                classes = profile.a
                word = phi_sa_window(profile, residues, lo, lo + span)
        assert word.offset == lo
        assert_packed(word, coding_oracle(bset.moduli, classes, residues, lo, lo + span))

    @given(
        st.lists(st.integers(2, 300), min_size=1, max_size=3),
        st.integers(-(2**64), 2**64),
        st.integers(1, 3000),
        st.integers(64, 400),
        st.sampled_from([1, 256]),
        st.sampled_from([1, 3, -3]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_class_runs_match_modular_oracle(self, drawn, lo, span, segment, run_span, rows, data):
        # one run of consecutive classes per modulus, wrapping past b - 1 or
        # not, struck as a 2-D zeroing (every run of 2 or more with
        # _RUN_SPAN at 1), in the wheel once span >= 64 b_1; three rows at
        # one point form one all-rows group, three at distinct points
        # (rows = -3) strike each class on its own; the packed kernel's
        # bytes at the first point are the first row, packed
        moduli = []
        for b in sorted(set(drawn)):
            if all(math.gcd(b, c) == 1 for c in moduli):
                moduli.append(b)
        classes = []
        for b in moduli:
            first, run = data.draw(st.integers(0, b - 1)), data.draw(st.integers(1, b - 1))
            classes.append(frozenset((first + i) % b for i in range(run)))
        points = [[data.draw(st.integers(0, b - 1)) for b in moduli] for _ in range(abs(rows))]
        if rows > 0:
            points = [points[0]] * rows
        residues = Residues(tuple(moduli), tuple(classes))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("bfree.sieve._SEGMENT_BYTES", segment)
            patch.setattr("bfree.sieve._RUN_SPAN", run_span)
            block = _sieve(lo, lo + span, residues, np.array(points, dtype=object))
            packed = _packed_sieve(residues, points[0], lo, lo + span)
        for row, point in zip(block, points):
            assert np.array_equal(row, coding_oracle(moduli, classes, point, lo, lo + span))
        assert packed.tobytes() == np.packbits(block[0], bitorder="little").tobytes()

    @given(
        st.lists(st.one_of(st.sampled_from([2, 4, 8, 16]), st.integers(2, 300)), max_size=4, unique=True),
        st.randoms(use_true_random=False),
        st.lists(st.integers(-(10**20), 10**20), min_size=4, max_size=4),
        st.sampled_from([0, 2**63, -(2**63), -(10**20)]),
        st.integers(-9, 9),
        st.integers(2, 300),
        st.integers(1, 4),
        st.integers(-8, 8),
        st.sampled_from([1, 16, 60, 2**16]),
    )
    @example([2, 8, 9], random.Random(1), [1, 2, 3, 4], 2**63, 0, 7, 4, 3, 2**16)
    @example([16, 27, 250, 251], random.Random(2), [0, 10**20, 5, -1], -(10**20), -9, 33, 4, -5, 2**16)
    @settings(max_examples=100, deadline=None)
    def test_packed_kernel_matches_modular_oracle(self, moduli, rng, point, base, shift, segment, m, k, wheel):
        # Moduli coprime or not, 2, 4, 8 and 16 among them (lcm(b, 8) < 8b),
        # each forbidding no class, one, half or all but one.  A window of m
        # packed segments of 8 to 2400 bits, plus or minus up to 8 bits, is
        # at least 64 times 16 to 37 positions long, so the cap mixes mask
        # groups, whose periods rarely divide a segment, with moduli above
        # it; with _WHEEL_MAX at 1 every modulus is above the cap.  Every
        # such window is longer than a segment, so the kernel packs it.
        moduli = sorted(moduli)
        classes = tuple(
            frozenset(rng.sample(range(b), rng.choice([0, 1, b // 2, b - 1]))) for b in moduli
        )
        residues, point = Residues(tuple(moduli), classes), point[: len(moduli)]
        span, lo = max(1, m * 8 * segment + k), base + shift
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("bfree.sieve._SEGMENT_BYTES", segment)
            patch.setattr("bfree.sieve._WHEEL_MAX", wheel)
            word = _coding(residues, point, lo, lo + span)
        assert word.offset == lo and word._bits is None
        assert_packed(word, coding_oracle(moduli, classes, point, lo, lo + span))

    def test_moduli_beyond_the_window(self, monkeypatch):
        # moduli above the cap, one past the window's length with many
        # classes and two past 2^63: each class hits at most once
        monkeypatch.setattr("bfree.sieve._SEGMENT_BYTES", 16)
        moduli, point, span = (3, 5000, 2**64 + 13, 10**30 + 57), (1, 7, 2**70, -5), 3 * 8 * 16 + 5
        for lo in (0, 2**63 - 200, -(10**20)):
            classes = (
                frozenset({2}),
                frozenset(range(0, 5000, 7)),
                frozenset((point[2] + lo + n) % moduli[2] for n in (0, 200, span - 1)),
                frozenset({(point[3] + lo + 129) % moduli[3], 5}),
            )
            word = _coding(Residues(moduli, classes), point, lo, lo + span)
            expected = [
                all((r + n) % b not in a for r, b, a in zip(point, moduli, classes)) for n in range(lo, lo + span)
            ]
            assert word.offset == lo and word._bits is None
            assert_packed(word, np.array(expected, dtype=np.uint8))
            assert not all(expected[n] for n in (0, 129, 200, span - 1))

    def test_windows_up_to_one_segment_keep_their_bytes(self, monkeypatch):
        # a window of at most one segment is the byte kernel's row, read-only,
        # and packed only when its bytes are first read
        monkeypatch.setattr("bfree.sieve._SEGMENT_BYTES", 100)
        bset = validate_bset([2, 3])
        for span, packed in ((1, False), (100, False), (101, True)):
            word = eta_window(bset, -7, -7 + span)
            assert (word._bits is None, word._data is None) == (packed, not packed)
            assert_packed(word, coding_oracle((2, 3), [(0,)] * 2, [0, 0], -7, -7 + span))

    def test_words_agree_across_constructors(self):
        # one set of bits reached six ways gives equal words with equal hashes
        bset, lo, hi = validate_bset([4, 9]), -(10**20) - 3, -(10**20) + 61
        batch = sample_mirsky(bset, lo, hi, 40, seed=5)
        row = batch.words[7]
        sieved = phi_window(OdometerPoint(bset, tuple(batch.omegas[7].tolist())), lo, hi)
        same = [
            sieved,
            row,
            BinaryWord.from_string(row.to_string(), lo),
            BinaryWord.from_support(row.support.tolist(), lo, hi),
            BinaryWord.unpack(sieved.pack(), hi - lo, lo),
            BinaryWord(np.array(row.bits), lo),
            sieved.shifted(5).shifted(-5),
        ]
        for word in same:
            assert word == sieved and hash(word) == hash(sieved)
        assert len({*same}) == 1
        # the same bytes with another length or offset are another word
        assert sieved != sieved.shifted(1)
        assert BinaryWord.from_string("1") != BinaryWord.from_string("10")
        assert BinaryWord.from_string("1").pack() == BinaryWord.from_string("10").pack()
