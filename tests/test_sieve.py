from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfree.core import BinaryWord, OdometerPoint, validate_bset
from bfree.errors import EmptyWord, WindowTooLarge
from bfree.sieve import SAProfile, eta_window, phi_sa_window, phi_window


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
