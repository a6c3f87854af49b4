import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfree import core
from bfree.core import (
    MAX_FAMILY_SIZE,
    BinaryWord,
    BSet,
    CylinderSpec,
    OdometerPoint,
    crt_free_count,
    squarefree_family,
    validate_bset,
)
from bfree.errors import BudgetExceeded, EmptyWord, LengthMismatch, ModulusTooSmall, NotCoprime, NotSorted
from sieve_oracle import crt_free_count_sieve

# pairwise coprime pool for random moduli sets
_POOL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

coprime_bsets = st.sets(st.sampled_from(_POOL), min_size=1, max_size=4).map(
    lambda s: validate_bset(sorted(s))
)


class TestValidateBset:
    def test_paper_family_truncation(self):
        assert validate_bset([4, 9, 25]).moduli == (4, 9, 25)

    def test_smallest_pair(self):
        assert validate_bset([2, 3]).moduli == (2, 3)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime) as exc:
            validate_bset([2, 4])
        assert (exc.value.i, exc.value.j) == (0, 1)

    def test_too_small(self):
        with pytest.raises(ModulusTooSmall):
            validate_bset([1, 3])

    def test_not_sorted(self):
        with pytest.raises(NotSorted):
            validate_bset([3, 2])
        with pytest.raises(NotSorted):
            validate_bset([2, 2])

    @given(coprime_bsets)
    def test_idempotent(self, bset):
        again = validate_bset(bset.moduli, bset.tail_bound)
        assert again == bset


class TestSquarefreeFamily:
    def test_three(self):
        assert squarefree_family(3).moduli == (4, 9, 25)

    def test_one(self):
        assert squarefree_family(1).moduli == (4,)

    def test_five(self):
        assert squarefree_family(5).moduli == (4, 9, 25, 49, 121)

    def test_tail_bound_valid(self):
        # declared bound 1/p_count dominates the true omitted tail
        fam = squarefree_family(4)
        assert fam.tail_bound == Fraction(1, 7)
        tail = sum(Fraction(1, p * p) for p in [11, 13, 17, 19, 23, 29, 31, 37])
        assert tail < fam.tail_bound

    def test_primes_against_a_sieve(self):
        limit = 20_000
        composite = np.zeros(limit, dtype=bool)
        for p in range(2, math.isqrt(limit) + 1):
            composite[p * p :: p] = True
        primes = [p for p in range(2, limit) if not composite[p]]
        assert core._first_primes(len(primes)) == primes

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(core, "_first_primes", lambda count: pytest.fail("search started"))
        with pytest.raises(BudgetExceeded, match="10000000 prime squares exceed budget"):
            squarefree_family(10**7)
        monkeypatch.undo()
        assert squarefree_family(MAX_FAMILY_SIZE).moduli[-1] == 104_729**2
        with pytest.raises(BudgetExceeded):
            squarefree_family(MAX_FAMILY_SIZE + 1)


class TestCrtFreeCount:
    def test_235(self):
        bset = validate_bset([2, 3, 5])
        assert crt_free_count(bset) == 8
        assert crt_free_count_sieve(bset) == 8

    def test_single(self):
        assert crt_free_count(validate_bset([2])) == 1

    def test_23(self):
        bset = validate_bset([2, 3])
        assert crt_free_count(bset) == 2
        # oracle: direct listing of the free residues in one period
        assert sorted(
            n for n in range(6) if n % 2 and n % 3
        ) == [1, 5]

    @given(coprime_bsets)
    @settings(max_examples=30)
    def test_formula_matches_sieve(self, bset):
        assert crt_free_count(bset) == crt_free_count_sieve(bset)


class TestSerialization:
    def test_bset_json_round_trip(self):
        bset = BSet((4, 9, 25), Fraction(1, 5))
        obj = json.loads(bset.to_json())
        assert obj == {"moduli": [4, 9, 25], "tail_bound": "1/5"}
        assert BSet.from_json(bset.to_json()) == bset

    def test_word_json_round_trip(self):
        w = BinaryWord.from_string("0100", -2)
        assert json.loads(w.to_json()) == {"offset": -2, "bits": "0100"}
        assert BinaryWord.from_json(w.to_json()) == w

    def test_word_pack_unpack(self):
        w = BinaryWord.from_string("10110001101")
        assert BinaryWord.unpack(w.pack(), len(w)) == w

    def test_pack_little_endian(self):
        # first bit of the word is the least significant bit of byte 0
        assert BinaryWord.from_string("10000000").pack() == b"\x01"


class TestOdometerPoint:
    def test_residues_reduced(self):
        p = OdometerPoint(validate_bset([2, 3]), (3, 7))
        assert p.residues == (1, 1)

    def test_advance(self):
        p = OdometerPoint(validate_bset([2, 3]), (0, 0))
        assert p.advance(5).residues == (1, 2)

    def test_length_check(self):
        with pytest.raises(ValueError):
            OdometerPoint(validate_bset([2, 3]), (0,))


class TestBinaryWord:
    def test_support(self):
        w = BinaryWord.from_string("0101", 10)
        assert list(w.support) == [11, 13]

    @pytest.mark.parametrize("offset", [2**63 - 5, 2**63 - 4, -(2**63), -(2**63) - 1, 2**70, -(10**20)])
    def test_support_past_int64_is_exact(self, offset):
        w = BinaryWord.from_string("1000000001", offset)
        assert w.support.tolist() == [offset, offset + 9]

    @given(st.text(alphabet="01", min_size=1, max_size=40), st.integers(-50, 50))
    def test_shift_moves_support_exactly(self, text, t):
        w = BinaryWord.from_string(text)
        assert list(w.shifted(t).support) == [n + t for n in w.support]

    def test_from_support(self):
        w = BinaryWord.from_support([1, 3], 0, 5)
        assert w.to_string() == "01010"
        with pytest.raises(ValueError):
            BinaryWord.from_support([9], 0, 5)

    def test_dominated_by(self):
        a = BinaryWord.from_string("0100")
        b = BinaryWord.from_string("0110")
        assert a.dominated_by(b)
        assert not b.dominated_by(a)
        with pytest.raises(LengthMismatch):
            a.dominated_by(BinaryWord.from_string("0110", 1))

    def test_density(self):
        assert BinaryWord.from_string("0101").density() == Fraction(1, 2)
        with pytest.raises(EmptyWord):
            BinaryWord(np.zeros(0, dtype=np.uint8)).density()

    def test_bits_read_only(self):
        w = BinaryWord.from_string("01")
        with pytest.raises(ValueError):
            w.bits[0] = 1


class TestCylinderSpec:
    def test_split(self):
        spec = CylinderSpec({0: 1, 2: 0, 5: 1})
        assert spec.ones == {0, 5}
        assert spec.zeros == {2}

    def test_bad_bit(self):
        with pytest.raises(ValueError):
            CylinderSpec({0: 2})
