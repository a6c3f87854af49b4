import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfree import admissibility
from bfree.admissibility import (
    MAX_BLOCK_LENGTH,
    MAX_STATE_BITS,
    MAX_WALK_STEPS,
    admissible_words,
    block_complexity,
    entropy_from_complexity,
    is_admissible,
    minimal_translation_period,
    residue_hits,
    spectrum_profile,
    theta_window,
)
from bfree.core import BinaryWord, BSet, OdometerPoint, validate_bset
from bfree.errors import BudgetExceeded, Inadmissible, StateSpaceTooLarge
from bfree.sieve import SAProfile, eta_window, phi_sa_window, phi_window
from count_oracle import block_complexity_dp, closed_form_count


def exhaustive_admissible(moduli, n):
    """Admissibility of all 2^n words by brute force, vectorized.

    Word i has bit j at position j.  A word covers residue class r mod b
    iff it intersects the mask of positions == r; admissible words cover
    no modulus completely.
    """
    words = np.arange(1 << n, dtype=np.uint64)
    ok = np.ones(1 << n, dtype=bool)
    for b in moduli:
        covered = np.ones(1 << n, dtype=bool)
        # classes n..b-1 hold no position, so one of them (r = n) suffices
        for r in range(min(b, n + 1)):
            mask = np.uint64(sum(1 << j for j in range(n) if j % b == r))
            covered &= (words & mask) != 0
        ok &= ~covered
    return ok


def exhaustive_counts(moduli, n_max):
    """Admissible-word counts for n = 1..n_max by checking all 2^n words."""
    return [int(exhaustive_admissible(moduli, n).sum()) for n in range(1, n_max + 1)]


def exhaustive_words(moduli, n):
    """Admissible words of length n as strings, lexicographically."""
    ok = exhaustive_admissible(moduli, n)
    return sorted(format(int(i), f"0{n}b")[::-1] for i in np.flatnonzero(ok))


class TestIsAdmissible:
    def test_covers_mod2(self):
        assert not is_admissible(BinaryWord.from_string("11"), validate_bset([2, 3]))

    def test_101(self):
        assert is_admissible(BinaryWord.from_string("101"), validate_bset([2, 3]))

    def test_empty_support(self):
        assert is_admissible(BinaryWord.from_string("0000"), validate_bset([2, 3, 5]))

    def test_large_moduli(self):
        # the cost follows the support, not the size of a modulus
        bset = validate_bset([2, 10_000_000_019])
        assert is_admissible(BinaryWord.from_string("101"), bset)
        assert not is_admissible(BinaryWord.from_string("11"), bset)
        word = BinaryWord.from_string("1011", 10**12)
        support = {10**12, 10**12 + 2, 10**12 + 3}
        b = bset.moduli[1]
        assert residue_hits(word, bset) == [{0, 1}, {n % b for n in support}]
        assert residue_hits(word, validate_bset([3, 10**25 + 13])) == [{0, 1}, support]
        assert SAProfile(bset, (1, 3), ({0}, {1, 5, 10**20})).a[1] == {1, 5, 10**20 % b}
        assert list(admissible_words(bset, 3)) == ["000", "001", "010", "100", "101"]

    @given(st.text(alphabet="01", min_size=1, max_size=30), st.data())
    @settings(max_examples=80)
    def test_hereditary(self, text, data):
        bset = validate_bset([2, 3])
        w = BinaryWord.from_string(text)
        if not is_admissible(w, bset):
            return
        # clear a random subset of the ones; admissibility must survive
        keep = data.draw(st.lists(st.booleans(), min_size=w.ones, max_size=w.ones))
        bits = w.bits.copy()
        for pos, k in zip(np.flatnonzero(bits), keep):
            if not k:
                bits[pos] = 0
        assert is_admissible(BinaryWord(bits), bset)

    @given(st.text(alphabet="01", min_size=1, max_size=30), st.integers(-60, 60))
    @settings(max_examples=60)
    def test_shift_invariant(self, text, t):
        bset = validate_bset([2, 3, 5])
        assert is_admissible(BinaryWord.from_string(text), bset) == is_admissible(
            BinaryWord.from_string(text, t), bset
        )


class TestBlockComplexity:
    def test_23(self):
        assert block_complexity(validate_bset([2, 3]), 3) == [2, 3, 5]

    def test_2(self):
        assert block_complexity(validate_bset([2]), 2) == [2, 3]

    def test_length_one(self):
        assert block_complexity(validate_bset([2, 3]), 1) == [2]

    def test_budget(self):
        with pytest.raises(StateSpaceTooLarge):
            block_complexity(validate_bset([7, 9, 11]), 5)

    def test_no_moduli(self):
        assert block_complexity(validate_bset([]), 6) == [2, 4, 8, 16, 32, 64]

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_against_transfer_dp(self, data):
        moduli: list[int] = []
        for b in data.draw(st.lists(st.integers(2, 18), max_size=5)):
            if sum(moduli) + b <= 18 and all(math.gcd(b, m) == 1 for m in moduli):
                moduli.append(b)
        bset = validate_bset(sorted(moduli))
        n = data.draw(st.integers(1, 60))
        assert block_complexity(bset, n) == block_complexity_dp(bset, n)

    @pytest.mark.parametrize("moduli, n", [((5, 19), 190), ((11, 13), 143)])
    def test_closed_form_at_the_budget_edge(self, moduli, n):
        # p_n at P | n; the transfer DP cannot reach these sets in test time
        counts = block_complexity(validate_bset(moduli), n)
        assert counts[-1] == closed_form_count(moduli, n)

    @pytest.mark.parametrize("moduli", [[2], [3], [2, 3], [5], [4], [2, 9], [3, 10], [2, 3, 5]])
    def test_against_exhaustive(self, moduli):
        bset = validate_bset(moduli)
        n = 16
        counts = block_complexity(bset, n)
        assert counts == exhaustive_counts(bset.moduli, n)
        words = list(admissible_words(bset, n))
        assert words == exhaustive_words(bset.moduli, n)
        assert len(words) == counts[-1]

    def test_words_deeper_than_recursion_limit(self):
        assert next(admissible_words(validate_bset([2, 3]), 5000)) == "0" * 5000

    @given(
        st.lists(st.integers(2, 20), max_size=4, unique=True),
        st.booleans(),
        st.integers(1, 14),
    )
    @settings(max_examples=80, deadline=None)
    def test_words_against_exhaustive_search(self, moduli, huge, n):
        # admissibility needs no coprimality, so the set is built unvalidated
        moduli = sorted(moduli) + [10**10 + 19] * huge
        bset = BSet(tuple(moduli))
        words = list(admissible_words(bset, n))
        assert words == exhaustive_words(moduli, n)
        if sum(moduli) <= MAX_STATE_BITS:
            assert len(words) == block_complexity(bset, n)[-1]

    @pytest.mark.parametrize("moduli, n", [((2, 3), 20), ((4, 9), 13)])
    def test_words_at_benchmark_shapes(self, moduli, n):
        # with [2, 3, 5] at n = 16, the shapes of perfbench's exact workload
        assert list(admissible_words(validate_bset(moduli), n)) == exhaustive_words(moduli, n)

    def test_word_length_domain(self):
        assert list(admissible_words(validate_bset([2, 3]), 0)) == [""]
        with pytest.raises(ValueError, match="n must be >= 0"):
            next(admissible_words(validate_bset([2, 3]), -1))

    @pytest.mark.parametrize("moduli", [[2], [2, 3], [3, 4]])
    def test_domination_lower_bound(self, moduli):
        # at full-period lengths, subsets of the free support give 2^(d n)
        bset = validate_bset(moduli)
        d = math.prod(1 - 1 / b for b in bset.moduli)
        L = bset.period
        counts = block_complexity(bset, 3 * L)
        for m in (1, 2, 3):
            n = m * L
            assert counts[n - 1] >= 2 ** math.floor(d * n)


def recurrence_order(moduli):
    """d = |E|, E = {prod a_k : 0 <= a_k < b_k}, by listing every product."""
    return len({math.prod(a) for a in itertools.product(*(range(b) for b in moduli))})


class TestPeriodRecurrence:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_walk_and_recurrence_agree(self, data):
        moduli: list[int] = []
        for b in data.draw(st.lists(st.integers(2, 9), max_size=3)):
            if sum(moduli) + b <= 14 and all(math.gcd(b, m) == 1 for m in moduli):
                moduli.append(b)
        bset = validate_bset(sorted(moduli))
        edge = recurrence_order(bset.moduli) * bset.period
        n = data.draw(st.integers(max(1, edge - 2 * bset.period), edge + 3 * bset.period))
        counts = []
        for factor in (0, math.inf):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(admissibility, "_RECURRENCE_FACTOR", factor)
                counts.append(block_complexity(bset, n))
        assert counts[0] == counts[1]
        if sum(moduli) <= 9 and n <= 200:
            assert counts[0] == block_complexity_dp(bset, n)

    @pytest.mark.parametrize("moduli, n_max", [((2, 3), MAX_BLOCK_LENGTH), ((3, 4), 3000), ((3, 5), 3000)])
    def test_closed_form_at_every_period(self, moduli, n_max):
        counts = block_complexity(validate_bset(moduli), n_max)
        period = math.prod(moduli)
        for n in range(period, n_max + 1, period):
            assert counts[n - 1] == closed_form_count(moduli, n), n

    @pytest.mark.parametrize(
        "bset, n, walked",
        [
            (validate_bset([2, 3]), 999, 3 * 6),
            (validate_bset([3, 5]), 303, 7 * 15),
            (validate_bset([3, 4]), 206, 6 * 12),
            (validate_bset([2, 5]), 200, 200),  # d = 5 > 4 s
            (validate_bset([2, 7]), 280, 280),  # d = 7 > 4 s
            (validate_bset([3, 5]), 92, 92),  # n <= d P
            (BSet((2, 4)), 200, 200),  # not coprime
            (BSet((4, 6)), 500, 500),
        ],
        ids=str,
    )
    def test_which_lengths_take_the_recurrence(self, monkeypatch, bset, n, walked):
        # every term is walked to d P on the recurrence, to n otherwise
        lengths = []
        add = admissibility._add_term
        monkeypatch.setattr(admissibility, "_add_term", lambda steps, *a: lengths.append(len(steps)) or add(steps, *a))
        counts = block_complexity(bset, n)
        assert set(lengths) == {walked}
        assert counts == block_complexity_dp(bset, n)

    @pytest.mark.parametrize("moduli", [[2], [5], [2, 3], [3, 4], [2, 9], [4, 5], [2, 3, 5], [3, 4, 5]])
    def test_kept_positions_per_length(self, moduli):
        # _period_recurrence prices the walk at s = prod_{k<K} (2^{b_k - 1} - 1)
        # kept positions per length, without running _term_weights
        *rest, _ = moduli
        width = math.prod(rest)
        kept = sum(k.bit_count() for k, w in admissibility._term_weights(rest, width).items() if w)
        assert kept == width * math.prod(2 ** (b - 1) - 1 for b in rest)


class TestLengthBudget:
    # tests/test_hostile.py runs the 10^8 and 10^9 lengths under a memory limit
    def test_budget_edge_runs(self):
        bset = validate_bset([2, 3])
        counts = block_complexity(bset, MAX_BLOCK_LENGTH)
        assert len(counts) == MAX_BLOCK_LENGTH and str(counts[-1])
        assert next(admissible_words(bset, MAX_BLOCK_LENGTH)) == "0" * MAX_BLOCK_LENGTH
        with pytest.raises(BudgetExceeded, match=f"length {MAX_BLOCK_LENGTH + 1} exceeds budget"):
            block_complexity(bset, MAX_BLOCK_LENGTH + 1)

    def test_refused_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(admissibility, "_term_weights", no_work)
        monkeypatch.setattr(admissibility, "MAX_BLOCK_LENGTH", 5)
        bset = validate_bset([2, 3])
        with pytest.raises(BudgetExceeded):
            block_complexity(bset, 6)
        with pytest.raises(BudgetExceeded):
            next(admissible_words(bset, 6))
        # the sum of moduli is refused first, as before
        with pytest.raises(StateSpaceTooLarge):
            block_complexity(validate_bset([7, 9, 11]), 6)
        assert list(admissible_words(bset, 5))


class TestWalkBudget:
    # tests/test_hostile.py runs [11, 13] at n = 14000 under a memory limit
    @pytest.mark.parametrize("moduli", [(2, 3), (2, 7), (2, 9)])
    def test_longest_length_admitted(self, moduli):
        # s = 1: 14000 walked lengths at most
        assert len(block_complexity(validate_bset(moduli), MAX_BLOCK_LENGTH)) == MAX_BLOCK_LENGTH

    @pytest.mark.parametrize(
        "moduli, n, kept, walked",
        [
            ((11, 13), 40, 1023, 40),  # d P = 8151: every length is walked
            ((3, 5), 3000, 3, 7 * 15),  # past d P = 105 the recurrence runs
            ((2, 3, 5), 40, 3, 40),
        ],
    )
    def test_refused_before_the_walk(self, monkeypatch, moduli, n, kept, walked):
        # s kept positions per length times the lengths walked: at the budget
        # the counts come back, one step over it is refused before _term_weights
        bset = validate_bset(moduli)
        monkeypatch.setattr(admissibility, "MAX_WALK_STEPS", kept * walked)
        assert len(block_complexity(bset, n)) == n

        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(admissibility, "_term_weights", no_work)
        monkeypatch.setattr(admissibility, "MAX_WALK_STEPS", kept * walked - 1)
        with pytest.raises(BudgetExceeded, match=f"{walked} lengths of {kept} kept positions"):
            block_complexity(bset, n)

    def test_budget_admits_about_a_second(self):
        # [11, 13] (s = 1023) at n = 1025 is the longest walk admitted
        assert MAX_WALK_STEPS // 1023 == 1025


class TestTailBudget:
    # tests/test_hostile.py runs [8, 9] at n = 14000 under a memory limit
    @pytest.mark.parametrize("moduli, n", [((2, 3), 999), ((3, 5), 3000), ((2, 3, 5), 400)])
    def test_refused_before_the_walk(self, monkeypatch, moduli, n):
        # (digits of alpha_t + 1) summed over t, times n / 30 + 1 digits per
        # count summed over the recurrence's lengths
        bset = validate_bset(moduli)
        *rest, last = moduli
        s = math.prod(2 ** (b - 1) - 1 for b in rest)
        alphas = admissibility._period_recurrence(bset.moduli, bset.period, n, s)
        walked = len(alphas) * bset.period
        assert alphas and walked < n
        digits = sum(a.bit_length() // 30 + 2 for a in alphas)
        tail = digits * (sum(range(walked + 1, n + 1)) // 30 + n - walked)
        monkeypatch.setattr(admissibility, "MAX_TAIL_DIGITS", tail)
        assert block_complexity(bset, n) == block_complexity_dp(bset, n)

        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(admissibility, "_term_weights", no_work)
        monkeypatch.setattr(admissibility, "MAX_TAIL_DIGITS", tail - 1)
        with pytest.raises(BudgetExceeded, match=f"recurrence tail of {tail} digit products"):
            block_complexity(bset, n)

    def test_longest_tails(self):
        # [4, 9] is counted to the length budget; [8, 9], [7, 9] and [4, 5, 7]
        # are refused there, before their 0.8-1.2 s tails
        assert len(block_complexity(validate_bset([4, 9]), MAX_BLOCK_LENGTH)) == MAX_BLOCK_LENGTH
        for moduli in ([8, 9], [7, 9], [4, 5, 7]):
            with pytest.raises(BudgetExceeded, match="recurrence tail"):
                block_complexity(validate_bset(moduli), MAX_BLOCK_LENGTH)


class TestEntropyFromComplexity:
    def test_values(self):
        h = entropy_from_complexity([2, 3, 5])
        assert h[0] == 1.0
        assert abs(h[1] - math.log2(3) / 2) < 1e-12
        assert abs(h[2] - math.log2(5) / 3) < 1e-12

    def test_trivial(self):
        assert entropy_from_complexity([1]) == [0.0]
        assert entropy_from_complexity([2, 4, 8]) == [1.0, 1.0, 1.0]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            entropy_from_complexity([2, 0])


class TestThetaWindow:
    def test_eta_window_recovers_zero(self):
        bset = validate_bset([2, 3])
        w = eta_window(bset, 0, 30)
        assert theta_window(w, bset) == [frozenset({0}), frozenset({0})]

    def test_101(self):
        bset = validate_bset([2, 3])
        assert theta_window(BinaryWord.from_string("101"), bset) == [
            frozenset({1}),
            frozenset({2}),
        ]

    def test_inadmissible_gives_none(self):
        assert theta_window(BinaryWord.from_string("11"), validate_bset([2])) == [None]

    def test_short_window_is_ambiguous(self):
        bset = validate_bset([5])
        result = theta_window(BinaryWord.from_string("1"), bset)[0]
        assert result is not None and len(result) == 4

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_recovers_sampled_point(self, r1, r2):
        bset = validate_bset([2, 3])
        omega = OdometerPoint(bset, (r1, r2))
        N = 10 * bset.period
        w = phi_window(omega, -N, N)
        assert theta_window(w, bset) == [
            frozenset({omega.residues[0]}),
            frozenset({omega.residues[1]}),
        ]


class TestMissingResidueBudget:
    def test_refused_before_listing(self):
        # listing the ~10^10 residues that "101" misses would not fit in memory
        bset = validate_bset([2, 10**10 + 19])
        word = BinaryWord.from_string("101")
        with pytest.raises(BudgetExceeded, match="10000000017 missing residues"):
            theta_window(word, bset)
        with pytest.raises(BudgetExceeded):
            spectrum_profile(word, bset)

    def test_budget_edge(self, monkeypatch):
        bset = validate_bset([5, 7])
        word = BinaryWord.from_string("1101")  # misses 2 classes mod 5, 4 mod 7
        monkeypatch.setattr(admissibility, "MAX_MISSING_RESIDUES", 4)
        assert theta_window(word, bset) == [frozenset({1, 3}), frozenset({1, 2, 3, 5})]
        assert spectrum_profile(word, bset).entries[1] == (7, 4, frozenset({2, 4, 5, 6}), 7)
        monkeypatch.setattr(admissibility, "MAX_MISSING_RESIDUES", 3)
        for f in (theta_window, spectrum_profile):
            with pytest.raises(BudgetExceeded, match="4 missing residues mod 7"):
                f(word, bset)


class TestMinimalTranslationPeriod:
    def test_step_three(self):
        assert minimal_translation_period({0, 3, 6}, 9) == 3

    def test_singleton(self):
        assert minimal_translation_period({0}, 4) == 4

    def test_step_two(self):
        assert minimal_translation_period({0, 2}, 4) == 2

    @given(st.sets(st.integers(0, 11), min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_against_full_scan(self, residues):
        b = 12
        target = frozenset(r % b for r in residues)
        brute = next(
            j
            for j in range(1, b + 1)
            if frozenset((r - j) % b for r in target) == target
        )
        assert minimal_translation_period(residues, b) == brute
        assert b % brute == 0

    @given(st.integers(1, 60).flatmap(lambda b: st.tuples(st.just(b), st.sets(st.integers(-b, 2 * b)))))
    @settings(max_examples=200)
    def test_against_brute_force_loop(self, case):
        b, residues = case
        target = {r % b for r in residues}
        brute = next(
            j for j in range(1, b + 1) if b % j == 0 and all((r + j) % b in target for r in target)
        )
        assert minimal_translation_period(residues, b) == brute

    def test_large_modulus(self):
        b = 10**10 + 19
        assert minimal_translation_period({0, 1}, b) == b
        assert minimal_translation_period(set(), b) == 1
        # b + 1 = 10**10 + 20 is a multiple of 10
        half = (b + 1) // 2
        assert minimal_translation_period({3, 3 + half}, b + 1) == half
        assert minimal_translation_period({3 + k * (b + 1) // 10 for k in range(10)}, b + 1) == (b + 1) // 10


class TestSpectrumProfile:
    def test_missing_progression(self):
        bset = validate_bset([9])
        w = BinaryWord.from_support(
            [n for n in range(27) if n % 9 in {1, 2, 4, 5, 7, 8}], 0, 27
        )
        prof = spectrum_profile(w, bset)
        assert prof.entries == ((9, 3, frozenset({0, 3, 6}), 3),)

    def test_eta_profile(self):
        bset = validate_bset([4])
        prof = spectrum_profile(eta_window(bset, 0, 40), bset)
        assert prof.entries == ((4, 1, frozenset({0}), 4),)

    def test_period_two_missing_set(self):
        bset = validate_bset([4])
        w = BinaryWord.from_support([n for n in range(12) if n % 2 == 1], 0, 12)
        prof = spectrum_profile(w, bset)
        assert prof.entries == ((4, 2, frozenset({0, 2}), 2),)

    def test_inadmissible(self):
        with pytest.raises(Inadmissible) as exc:
            spectrum_profile(BinaryWord.from_string("11"), validate_bset([2, 3]))
        assert exc.value.k == 0

    @given(
        st.integers(2, 60).flatmap(
            lambda b: st.tuples(
                st.just(b),
                st.sampled_from([d for d in range(1, b + 1) if b % d == 0]),
                st.sets(st.integers(0, b - 1)),
                st.integers(1, 3 * b),
                st.sets(st.integers(0, 3 * b - 1), max_size=3),
            )
        )
    )
    @settings(max_examples=200)
    def test_period_from_hits_equals_period_of_missing(self, case):
        # the support repeats with period d, except a few dropped positions
        b, d, classes, length, dropped = case
        support = [n for n in range(length) if n % d in {c % d for c in classes} and n not in dropped]
        word = BinaryWord.from_support(support, 0, length)
        try:
            ((_, s, missing, b_prime),) = spectrum_profile(word, BSet((b,))).entries
        except Inadmissible:
            assert len({n % b for n in support}) == b
            return
        assert s == len(missing) and b_prime == minimal_translation_period(missing, b)

    def test_recovers_generalized_profile(self):
        profile = SAProfile(
            validate_bset([4, 9]),
            (2, 3),
            (frozenset({0, 2}), frozenset({0, 3, 6})),
        )
        w = phi_sa_window(profile, (0, 0), 0, 36)
        prof = spectrum_profile(w, profile.bset)
        for (b, s, missing, bp), sk, ak in zip(prof.entries, profile.s, profile.a):
            assert s == sk
            assert bp == minimal_translation_period(ak, b)
            # arithmetic-progression a^k of step b' forces s >= b/b'
            assert s >= b // bp
