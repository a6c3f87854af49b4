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


# SHA-256 of the pack() bytes of PACK_WORDS, taken before words were stored packed.
PACK_DIGEST = "d5e16b31c4091a47fa0f58cbee243fc9a07b62aab725b4a1fda64354bf555bd6"


def pack_words():
    from bfree import ProductMeasureSpec, RotationCoding, SAProfile, sample_product, sturmian_window
    from bfree.sieve import eta_window, phi_sa_window, phi_window
    from bfree.sturmian import PeriodicHereditarySystem, minimal_subset_variant

    sf4 = squarefree_family(4)
    profile = SAProfile(validate_bset([4, 9]), (2, 3), (frozenset({0, 2}), frozenset({1, 4, 7})))
    return [
        eta_window(sf4, -(10**20), -(10**20) + 100_003),
        eta_window(squarefree_family(8), 2**63 - 5, 2**63 + 3 * 2**20 + 5),
        phi_window(OdometerPoint(sf4, (1, 2, 3, 4)), 7, 7 + 64 * 900 + 13),
        phi_sa_window(profile, (1, 5), -5, 1001),
        *sample_product(ProductMeasureSpec(sf4, Fraction(1, 3)), 3, 3 + 77, 5, seed=9).words,
        sturmian_window(RotationCoding.golden(), -1000, 12_345),
        minimal_subset_variant(PeriodicHereditarySystem(BinaryWord.from_string("101001000")), [2, 3, 5], 0, 10**5 + 1),
        BinaryWord.from_string("1011000110100"),
    ]


class TestPackedStore:
    """A word is stored as the bytes of pack(): eight positions to a byte,
    little-endian bit order, zero padding."""

    def test_pack_bytes_unchanged(self):
        import hashlib

        assert hashlib.sha256(b"".join(w.pack() for w in pack_words())).hexdigest() == PACK_DIGEST

    @given(st.text(alphabet="01", max_size=40), st.text(alphabet="01", max_size=40), st.integers(-(2**70), 2**70))
    def test_byte_operations_match_the_string(self, text, other, offset):
        w = BinaryWord.from_string(text, offset)
        data = w.pack()
        assert len(data) == (len(text) + 7) // 8 and len(w) == len(text)
        assert int.from_bytes(data, "little") == int(text[::-1] or "0", 2)
        assert w.ones == text.count("1")
        assert BinaryWord.unpack(data, len(text), offset) == w
        if other and len(other) == len(text):
            v = BinaryWord.from_string(other, offset)
            assert w.dominated_by(v) == all(a <= b for a, b in zip(text, other))
            assert (w == v) == (text == other)
        assert w.shifted(3).pack() == data and w.shifted(3).offset == offset + 3

    def test_unpack_ignores_padding_and_checks_size(self):
        w = BinaryWord.unpack(b"\xff\x0d", 11, 4)
        assert w == BinaryWord.from_string("11111111101", 4)
        assert w.pack() == b"\xff\x05"
        assert BinaryWord.unpack(b"", 0).pack() == b"" and len(BinaryWord.unpack(b"", 0)) == 0
        for data, length in ((b"\x01", 9), (b"\x01\x00", 8), (b"", 1), (b"\x01", -1)):
            with pytest.raises(ValueError):
                BinaryWord.unpack(data, length)

    def test_bits_unpacked_once(self):
        from bfree.sieve import eta_window

        w = eta_window(squarefree_family(3), 10**9, 10**9 + 10**6)
        assert w.bits is w.bits and not w.bits.flags.writeable
        assert w.shifted(2).bits is w.bits


class TestCylinderSpec:
    def test_split(self):
        spec = CylinderSpec({0: 1, 2: 0, 5: 1})
        assert spec.ones == {0, 5}
        assert spec.zeros == {2}

    def test_bad_bit(self):
        with pytest.raises(ValueError):
            CylinderSpec({0: 2})
