import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfree.core import BinaryWord, OdometerPoint, squarefree_family, validate_bset
from bfree.errors import EmptyWord, WindowTooLarge
from bfree.measures import _sample
from bfree.sieve import SAProfile, eta_window, phi_sa_window, phi_window
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
def profiles(draw):
    # pairwise coprime moduli, each with s_k of its classes forbidden
    moduli = []
    for b in draw(st.lists(st.sampled_from([2, 3, 4, 5, 7, 9, 11, 13, 25]), min_size=1, max_size=4)):
        if all(math.gcd(b, c) == 1 for c in moduli):
            moduli.append(b)
    moduli.sort()
    a = tuple(
        frozenset(draw(st.lists(st.integers(0, b - 1), min_size=1, max_size=b - 1, unique=True)))
        for b in moduli
    )
    return SAProfile(validate_bset(moduli), tuple(map(len, a)), a)


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
        profiles(),
        st.integers(-(2**66), 2**66),
        st.integers(1, 8_000),
        st.integers(1, 5),
        st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_sampled_rows_match_modular_oracle(self, profile, lo, span, count, seed):
        moduli, hi = profile.bset.moduli, lo + span
        block, omegas = _sample(moduli, profile.a, profile.odometer_moduli, Fraction(1),
                                lo, hi, count, seed)
        assert block.shape == (count, span)
        for row, omega in zip(block, omegas.tolist()):
            assert np.array_equal(row, coding_oracle(moduli, profile.a, omega, lo, hi))

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
            assert not word.bits.base.flags.writeable
