import pytest

from pnfkit import (
    ContractError,
    ScaleError,
    count_prenecklaces,
    enumerate_pn,
    is_lyndon,
    is_prefix_normal,
    is_prenecklace,
    lyndon_extension_check,
    parse_word,
)
from pnfkit.lyndon import is_prenecklace_bruteforce
from conftest import all_words, words_up_to

KNOWN_PNW = [2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697, 1273, 2279, 4185, 7568]
KNOWN_PL = [2, 3, 5, 8, 14, 23, 41, 71, 127, 226, 412, 747, 1377, 2538, 4720, 8800]


class TestLyndon:
    def test_known_examples(self):
        assert not is_lyndon(parse_word("0101"))  # not primitive
        assert is_lyndon(parse_word("00110100111"))
        assert is_lyndon(parse_word("01"))

    def test_edge_cases(self):
        assert not is_lyndon(parse_word(""))
        assert is_lyndon(parse_word("0"))
        assert is_lyndon(parse_word("1"))
        assert not is_lyndon(parse_word("10"))
        assert not is_lyndon(parse_word("11"))

    def test_matches_definition(self):
        # Non-empty and strictly smaller than each proper suffix.
        for w in words_up_to(14):
            s = w.to01()
            assert is_lyndon(w) == (len(s) > 0 and all(s < s[i:] for i in range(1, len(s)))), s

    def test_lyndon_words_are_primitive(self):
        for n in range(1, 11):
            for w in all_words(n):
                if not is_lyndon(w):
                    continue
                s = w.to01()
                for p in range(1, n):
                    if n % p == 0:
                        assert s != s[:p] * (n // p)


class TestPrenecklace:
    def test_known_examples(self):
        assert is_prenecklace(parse_word("00110100"))
        assert not is_prefix_normal(parse_word("00110100"), 0)
        assert not is_prenecklace(parse_word("10"))

    def test_empty_word(self):
        assert is_prenecklace(parse_word(""))
        assert is_prenecklace_bruteforce(parse_word(""))

    def test_incremental_matches_bruteforce(self):
        for w in words_up_to(14):
            assert is_prenecklace(w) == is_prenecklace_bruteforce(w), w

    def test_normal_words_are_prenecklaces(self):
        for n in range(1, 13):
            for w in enumerate_pn(n, 0):
                assert is_prenecklace(w), w

    def test_known_counts(self):
        for n, expected in enumerate(KNOWN_PL, start=1):
            assert count_prenecklaces(n) == expected

    def test_count_matches_per_word_test(self):
        for n in range(11):
            direct = sum(1 for w in all_words(n) if is_prenecklace(w))
            assert count_prenecklaces(n) == direct

    def test_count_guard(self):
        with pytest.raises(ScaleError):
            count_prenecklaces(10_001)

    def test_strict_containment_from_length_8(self):
        for n, (pnw_n, pl_n) in enumerate(zip(KNOWN_PNW, KNOWN_PL), start=1):
            normal_count = sum(1 for _ in enumerate_pn(n, 0))
            assert normal_count == pnw_n
            if n <= 7:
                assert pnw_n == pl_n
            else:
                assert pnw_n < pl_n


class TestLyndonExtension:
    def test_short_examples(self):
        assert lyndon_extension_check(parse_word("01"))
        assert lyndon_extension_check(parse_word("0"))
        assert lyndon_extension_check(parse_word("0011011"))  # PNF0 of 1001101

    def test_contract(self):
        with pytest.raises(ContractError):
            lyndon_extension_check(parse_word("1111"))  # no zero
        with pytest.raises(ContractError):
            lyndon_extension_check(parse_word("00110100"))  # not 0-prefix-normal

    def test_exhaustive_small(self):
        # acceptance pushes this to length 12
        for n in range(1, 10):
            for w in enumerate_pn(n, 0):
                if w.count(0) > 0:
                    assert lyndon_extension_check(w), w

    def test_non_containment_both_ways(self):
        assert is_prefix_normal(parse_word("0101"), 0) and not is_lyndon(parse_word("0101"))
        assert is_lyndon(parse_word("00110100111")) and not is_prefix_normal(
            parse_word("00110100111"), 0
        )
