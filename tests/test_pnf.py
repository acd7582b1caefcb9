import random

import pytest

from pnfkit import (
    BinaryWord,
    ParikhVector,
    PnfPair,
    ScaleError,
    is_prefix_normal,
    max_ones_profile,
    max_zeros_profile,
    parikh_set,
    parikh_set_bruteforce,
    parikh_set_equal,
    parse_word,
    pnf0,
    pnf1,
    pnf_pair,
    prefix_equivalent,
)
from pnfkit.pnf import _difference_word
from conftest import (
    all_words,
    pack_oracle,
    random_word,
    window_scan_profile,
    word_from_steps,
    words_up_to,
)

LONG = parse_word("1010011011000111001011")


class TestNormalForms:
    def test_long_reference_word(self):
        assert pnf1(LONG).to01() == "1110100110100101100101"
        assert pnf0(LONG).to01() == "0001101010101101010111"

    def test_short_example(self):
        w = parse_word("1001101")
        assert pnf1(w).to01() == "1101001"
        assert pnf0(w).to01() == "0011011"

    def test_trivial_cases(self):
        assert pnf0(parse_word("0000")).to01() == "0000"
        assert pnf1(parse_word("")).to01() == ""

    def test_idempotence(self, rng):
        w = parse_word("10110")
        assert pnf1(pnf1(w)) == pnf1(w)
        for _ in range(40):
            v = random_word(rng, rng.randrange(0, 25))
            assert pnf1(pnf1(v)) == pnf1(v)
            assert pnf0(pnf0(v)) == pnf0(v)

    def test_outputs_are_normal(self, rng):
        for _ in range(40):
            v = random_word(rng, rng.randrange(0, 20))
            assert is_prefix_normal(pnf1(v), 1)
            assert is_prefix_normal(pnf0(v), 0)

    def test_reversal_invariance(self, rng):
        for _ in range(40):
            v = random_word(rng, rng.randrange(0, 25))
            assert pnf1(v) == pnf1(v.reverse())
            assert pnf0(v) == pnf0(v.reverse())

    def test_complement_duality(self, rng):
        for _ in range(40):
            v = random_word(rng, rng.randrange(0, 25))
            assert pnf0(v) == pnf1(v.complement()).complement()

    def test_pair_serialization(self):
        pair = pnf_pair(parse_word("1001101"))
        assert (pair.pnf1.to01(), pair.pnf0.to01()) == ("1101001", "0011011")

    def test_uniqueness_and_singletons_exhaustive(self):
        # One scan checks two facts about the 1-equivalence classes of
        # sigma^n, for every n up to 14: each class holds exactly one
        # 1-prefix-normal word (the pnf1 of all its members), and a
        # class of size one means a normal palindrome.
        for n in range(15):
            classes = {}
            for w in all_words(n):
                classes.setdefault(pnf1(w), []).append(w)
            for representative, members in classes.items():
                normal = [w for w in members if is_prefix_normal(w, 1)]
                assert normal == [representative]
                if len(members) == 1:
                    assert members[0] == members[0].reverse()


def shaped_word(shape: str, n: int) -> BinaryWord:
    rng = random.Random(0x5EED)
    if shape == "empty":
        return BinaryWord(0, 0)
    if shape == "all-0":
        return BinaryWord(0, n)
    if shape == "all-1":
        return BinaryWord((1 << n) - 1, n)
    if shape == "random":
        return random_word(rng, n)
    if shape in ("sparse", "dense"):
        p = 0.05 if shape == "sparse" else 0.95
        return BinaryWord.from_bits([int(rng.random() < p) for _ in range(n)])
    assert shape == "40-runs"
    cuts = [0, *sorted(rng.sample(range(1, n), 39)), n]
    return BinaryWord.from_bits([r % 2 for r in range(40) for _ in range(cuts[r + 1] - cuts[r])])


class TestKernelMatchesWindowScan:
    """The rarer-symbol kernel against the early-exit window scan."""

    @staticmethod
    def assert_matches(w):
        f1 = window_scan_profile(w, 1)
        f0 = window_scan_profile(w, 0)
        assert max_ones_profile(w) == f1
        assert max_zeros_profile(w) == f0
        assert pnf_pair(w) == PnfPair(word_from_steps(f1, 1), word_from_steps(f0, 0))

    def test_exhaustive_to_12(self):
        for w in words_up_to(12):
            self.assert_matches(w)

    @pytest.mark.parametrize(
        "shape", ["random", "sparse", "dense", "40-runs", "all-0", "all-1", "empty"]
    )
    def test_long_words(self, shape):
        w = shaped_word(shape, 2000)
        assert len(w) == (0 if shape == "empty" else 2000)
        self.assert_matches(w)


class TestDifferenceWord:
    """Normal forms packed in one pass against a bit-at-a-time packing."""

    @staticmethod
    def assert_matches(w):
        for v, symbol in ((max_ones_profile(w), 1), (max_zeros_profile(w), 0)):
            expected = pack_oracle(
                [symbol if b > a else 1 - symbol for a, b in zip(v, v[1:])]
            )
            assert _difference_word(v, symbol) == expected

    def test_exhaustive_to_10(self):
        for w in words_up_to(10):
            self.assert_matches(w)

    @pytest.mark.parametrize("shape", ["random", "sparse", "40-runs", "all-0", "all-1"])
    def test_long_words(self, shape):
        self.assert_matches(shaped_word(shape, 2000))


class TestPrefixEquivalence:
    def test_known_one_class(self):
        words = ["11010", "10110", "01101", "01011"]
        for a in words:
            for b in words:
                assert prefix_equivalent(parse_word(a), parse_word(b), 1)

    def test_known_zero_classes(self):
        assert not prefix_equivalent(parse_word("11010"), parse_word("10110"), 0)
        assert prefix_equivalent(parse_word("01011"), parse_word("10101"), 0)
        assert prefix_equivalent(parse_word("01101"), parse_word("10110"), 0)

    def test_different_lengths_never_equivalent(self):
        assert not prefix_equivalent(parse_word("1"), parse_word("10"), 1)


class TestParikhSets:
    def test_worked_example(self):
        expected = {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)}
        assert parikh_set(parse_word("011")) == {ParikhVector(*p) for p in expected}

    def test_empty_word(self):
        assert parikh_set(parse_word("")) == {ParikhVector(0, 0)}

    def test_101_misses_two_ones(self):
        full = parikh_set(parse_word("011"))
        assert parikh_set(parse_word("101")) == full - {ParikhVector(0, 2)}

    def test_field_order_is_zeros_then_ones(self):
        (vec,) = parikh_set(parse_word("1")) - {ParikhVector(0, 0)}
        assert vec.zeros == 0 and vec.ones == 1
        assert vec == (0, 1)

    def test_suffix_union_equals_bruteforce(self, rng):
        for n in range(9):
            for w in all_words(n):
                assert parikh_set(w) == parikh_set_bruteforce(w)
        for _ in range(20):
            w = random_word(rng, rng.randrange(9, 25))
            assert parikh_set(w) == parikh_set_bruteforce(w)

    def test_scale_guard(self):
        with pytest.raises(ScaleError):
            parikh_set(random_word(__import__("random").Random(1), 25))
        assert parikh_set(parse_word("1" * 25), unsafe_large=True)

    def test_interval_property(self):
        # Per total length, the ones-counts of the factors form one
        # contiguous run; parikh_set reads the runs off the two forms, so
        # the property is checked on a direct scan of every factor.
        for n in range(15):
            for w in all_words(n):
                prefix = w.prefix_counts(1)
                by_total = {}
                for i in range(n):
                    for j in range(i + 1, n + 1):
                        by_total.setdefault(j - i, set()).add(prefix[j] - prefix[i])
                for ones_set in by_total.values():
                    assert ones_set == set(range(min(ones_set), max(ones_set) + 1))


class TestParikhSetEquality:
    def test_examples(self):
        assert parikh_set_equal(parse_word("011"), parse_word("110"))
        assert pnf1(parse_word("011")).to01() == "110"
        assert pnf0(parse_word("011")).to01() == "011"
        assert not parikh_set_equal(parse_word("011"), parse_word("101"))
        for text in ("", "0", "100110"):
            assert parikh_set_equal(parse_word(text), parse_word(text))

    def test_agrees_with_bruteforce_partitions(self):
        # Grouping by (pnf1, pnf0) must equal grouping by the actual
        # Parikh set, for every word of each length.
        for n in range(11):
            by_forms = {}
            by_sets = {}
            for w in all_words(n):
                by_forms.setdefault((pnf1(w), pnf0(w)), set()).add(w)
                by_sets.setdefault(parikh_set(w), set()).add(w)
            assert set(map(frozenset, by_forms.values())) == set(
                map(frozenset, by_sets.values())
            )

    def test_cross_length_pairs_disagree_nowhere(self):
        assert not parikh_set_equal(parse_word("01"), parse_word("011"))
        assert parikh_set(parse_word("01")) != parikh_set(parse_word("011"))
