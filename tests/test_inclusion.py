import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfree import inclusion, sieve
from bfree.admissibility import is_admissible
from bfree.core import BSet, OdometerPoint, crt_free_count, squarefree_family, validate_bset
from bfree.errors import DivisiblePrecondition, NotCoprimeToC, WindowTooLarge
from bfree.inclusion import (
    construct_admissible,
    density_estimate,
    equality,
    includes,
    inclusion_witness,
    word_level_includes,
)
from bfree.sieve import MAX_WINDOW_BITS, phi_window

_POOL = [2, 3, 5, 7, 11, 4, 9, 25, 8, 27]


def random_bset(rng):
    primes = rng.sample([2, 3, 5, 7, 11, 13], rng.randint(1, 3))
    return validate_bset(sorted(p ** rng.randint(1, 2) for p in primes))


class TestIncludes:
    def test_divisor(self):
        assert includes(validate_bset([2]), validate_bset([4]))

    def test_no_divisor(self):
        assert not includes(validate_bset([2, 3]), validate_bset([5]))

    def test_mixed(self):
        assert includes(validate_bset([2, 9]), validate_bset([4, 9]))

    def test_preorder(self):
        rng = random.Random(0)
        sets = [random_bset(rng) for _ in range(40)]
        for s in sets:
            assert includes(s, s)
        for a in sets[:12]:
            for b in sets[:12]:
                for c in sets[:12]:
                    if includes(a, b) and includes(b, c):
                        assert includes(a, c)


class TestEquality:
    def test_identical(self):
        assert equality(validate_bset([2, 3]), validate_bset([2, 3]))

    def test_different(self):
        assert not equality(validate_bset([2]), validate_bset([4]))

    def test_order_insensitive(self):
        assert equality(validate_bset([4, 9]), validate_bset(sorted([9, 4])))

    def test_is_mutual_inclusion(self):
        rng = random.Random(5)
        sets = [random_bset(rng) for _ in range(40)]
        for a in sets:
            for b in sets:
                assert equality(a, b) == (includes(a, b) and includes(b, a))


class TestConstructAdmissible:
    def test_23_5(self):
        assert construct_admissible([2, 3], 5) == {31, 17, 13, 19, 35}

    def test_2_3(self):
        assert construct_admissible([2], 3) == {7, 5, 9}

    def test_empty_small(self):
        assert construct_admissible([], 2) == {3, 4}

    def test_divisible_precondition(self):
        with pytest.raises(DivisiblePrecondition):
            construct_admissible([2, 3], 6)

    def test_length_budget(self, monkeypatch):
        # the witness word has length b' * (1 + 2 * 3) + 1 = 7064 at b' = 1009
        monkeypatch.setattr("bfree.sieve.MAX_WINDOW_BITS", 7064)
        assert len(inclusion_witness(validate_bset([2, 3]), validate_bset([1009]))) == 7064
        monkeypatch.setattr("bfree.sieve.MAX_WINDOW_BITS", 1000)
        with pytest.raises(WindowTooLarge):
            construct_admissible([2, 3], 1009)
        with pytest.raises(WindowTooLarge):
            inclusion_witness(validate_bset([2, 3]), validate_bset([1009]))

    def test_randomized_verification(self):
        rng = random.Random(7)
        done = 0
        while done < 60:
            small = rng.sample([2, 3, 5, 7], rng.randint(0, 3))
            b_prime = rng.randint(2, 40)
            if any(b_prime % m == 0 for m in small):
                continue
            out = construct_admissible(small, b_prime)
            assert len(out) == b_prime
            assert max(out) == b_prime * (1 + math.prod(small))
            for m in small:
                assert all(x % m != 0 for x in out)
            assert {x % b_prime for x in out} == set(range(b_prime))
            done += 1


class TestInclusionWitness:
    def test_witness_via_construction(self):
        w = inclusion_witness(validate_bset([2, 3]), validate_bset([5]))
        assert sorted(int(n) for n in w.support) == [13, 17, 19, 31, 35]
        assert is_admissible(w, validate_bset([2, 3]))
        assert not is_admissible(w, validate_bset([5]))

    def test_no_witness_when_included(self):
        assert inclusion_witness(validate_bset([2]), validate_bset([4])) is None
        assert inclusion_witness(validate_bset([2]), validate_bset([2])) is None

    def test_included_pair_past_the_oracle_budget(self):
        # prod A = 4 * 9 * 25 * 49 * 121 exceeds the oracle's combination budget
        assert inclusion_witness(squarefree_family(5), validate_bset([4 * 121 * 7])) is None

    def test_verdict_does_not_run_the_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("word_level_includes called")

        monkeypatch.setattr("bfree.inclusion.word_level_includes", refuse)
        monkeypatch.setattr("bfree.inclusion._separating_modulus", refuse)
        assert inclusion_witness(validate_bset([2, 9]), validate_bset([4, 9])) is None
        assert equality(validate_bset([2, 9]), validate_bset([2, 9]))

    def test_witness_matches_verdict(self):
        rng = random.Random(3)
        for _ in range(30):
            a, b = random_bset(rng), random_bset(rng)
            w = inclusion_witness(a, b)
            assert (w is None) == includes(a, b)
            if w is not None:
                assert is_admissible(w, a) and not is_admissible(w, b)


class TestWordLevelOracle:
    def test_agrees_on_small_pairs(self):
        singles = [validate_bset([b]) for b in range(2, 16)]
        for a in singles:
            for b in singles:
                assert word_level_includes(a, b) == includes(a, b)

    def test_agrees_on_random_pairs(self):
        rng = random.Random(11)
        for _ in range(60):
            a, b = random_bset(rng), random_bset(rng)
            assert word_level_includes(a, b) == includes(a, b)

    def test_direct_maximal_support_check(self):
        # independent oracle: place ones at every position avoiding one
        # reserved residue per A-modulus and see if a B-modulus is covered
        for a_mods, b_prime in [((2,), 4), ((2,), 3), ((2, 3), 5), ((3,), 9), ((4,), 6)]:
            period = math.lcm(*(a_mods + (b_prime,)))
            brute = False
            for reserved in _all_combos(a_mods):
                allowed = [
                    n
                    for n in range(period)
                    if all(n % a != m for a, m in zip(a_mods, reserved))
                ]
                if {n % b_prime for n in allowed} == set(range(b_prime)):
                    brute = True
                    break
            oracle = not word_level_includes(
                validate_bset(list(a_mods)), validate_bset([b_prime])
            )
            assert oracle == brute


def _all_combos(mods):
    import itertools

    return itertools.product(*(range(m) for m in mods))


class TestDensityEstimate:
    def test_23(self):
        est = density_estimate(validate_bset([2, 3]), 5, 0, 60000)
        assert abs(est - 1 / 3) < 2 * 6 / 60000 + 1e-12

    def test_single(self):
        est = density_estimate(validate_bset([2]), 3, 1, 100000)
        assert abs(est - 1 / 2) < 1e-4

    def test_exact_small_horizon(self):
        assert density_estimate(validate_bset([2, 3]), 1, 0, 6) == 2 / 6

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeToC):
            density_estimate(validate_bset([2, 3]), 4, 0, 100)

    @staticmethod
    def _exact(moduli, c, r, horizon):
        free = sum(all((s * c + r) % b for b in moduli) for s in range(1, horizon + 1))
        return free / horizon

    def test_no_int64_wrap(self):
        # s * c + r passes 2^63 from s = 93 on
        bset = validate_bset((9, 25))
        est = density_estimate(bset, 10**17 + 1, 5, 2250)
        assert est == self._exact((9, 25), 10**17 + 1, 5, 2250) == 1920 / 2250

    def test_huge_c_and_r(self):
        c, r = 2**64 + 1, 3 * 2**70 + 2
        assert density_estimate(validate_bset((9, 25)), c, r, 2250) == self._exact((9, 25), c, r, 2250)
        assert density_estimate(validate_bset((7,)), -c, -r, 50) == self._exact((7,), -c, -r, 50)

    def test_horizon_budget(self, monkeypatch):
        # the budget is on the sieved tail t = horizon mod P, not the horizon:
        # over [2, 3], horizons past the budget sieve at most 5 bits, exactly
        bset = validate_bset([2, 3])
        for horizon in (MAX_WINDOW_BITS + 1, 10**15):
            q, t = divmod(horizon, 6)
            tail = sum(all(s * 5 % b for b in (2, 3)) for s in range(1, t + 1))
            assert density_estimate(bset, 5, 0, horizon) == (q * crt_free_count(bset) + tail) / horizon

        def allocate(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        for name in ("empty", "ones", "zeros", "array"):
            monkeypatch.setattr(np, name, allocate)
        monkeypatch.setattr(sieve, "_packed_output", allocate)
        # one prime modulus 2^31 - 1 > 2^30, and a tail of 2^30 + 1 bits
        prime = validate_bset([2**31 - 1])
        with pytest.raises(WindowTooLarge):
            density_estimate(prime, 5, 0, prime.period + MAX_WINDOW_BITS + 1)

    @pytest.mark.parametrize("horizon", [900, 901, 1799, 10**5 + 7, 3 * 10**6])
    def test_counts_the_whole_horizon(self, horizon):
        # one sieved period stands for the whole window [1, horizon]
        sf3, c, r = squarefree_family(3), 7, 10**20 + 3
        omega = OdometerPoint(sf3, tuple(r * pow(c, -1, b) for b in sf3.moduli))
        assert density_estimate(sf3, c, r, horizon) == phi_window(omega, 1, horizon + 1).ones / horizon

    @pytest.mark.parametrize("q", [1, 3])
    @pytest.mark.parametrize("t", [0, 1, 899])
    def test_only_the_tail_is_sieved(self, monkeypatch, q, t):
        # each period holds prod(b_k - 1) ones, so horizon qP + t sieves only
        # its t-bit tail (nothing at t = 0); the count equals the one of a
        # sieved full period, q times, plus that period's first t bits
        bset, c, r = validate_bset([4, 9, 25]), 7, 10**20 + 3
        omega = OdometerPoint(bset, tuple(r * pow(c, -1, b) for b in bset.moduli))
        period = phi_window(omega, 1, 901)
        expected = (q * period.ones + int(period.bits[:t].sum())) / (900 * q + t)
        sieved = []
        monkeypatch.setattr(inclusion, "phi_window", lambda *args: sieved.append(args[1:]) or phi_window(*args))
        assert density_estimate(bset, c, r, 900 * q + t) == expected
        assert sieved == ([(1, 1 + t)] if t else [])

    @given(st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30), st.integers(30, 200))
    @settings(max_examples=50)
    def test_matches_direct_count(self, c, r, horizon):
        moduli = (2, 3, 5)
        if any(math.gcd(c, b) != 1 for b in moduli):
            return
        assert density_estimate(validate_bset(moduli), c, r, horizon) == self._exact(moduli, c, r, horizon)
