import statistics
import time

import pytest

from pnfkit import (
    BinaryWord,
    RankDirectory,
    ScaleError,
    WordParseError,
    max_ones_profile,
    max_zeros_profile,
    min_ones_profile,
    parse_word,
)
from conftest import (
    all_words,
    bits_oracle,
    factor_ones_counts,
    pack_oracle,
    random_word,
    words_up_to,
)

REFERENCE_WORD = "1010011011000111001011"
REFERENCE_F1 = (0, 1, 2, 3, 3, 4, 4, 4, 5, 6, 6, 7, 7, 7, 8, 8, 9, 10, 10, 10, 11, 11, 12)
REFERENCE_F0 = (0, 1, 2, 3, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 7, 8, 8, 9, 9, 10, 10, 10, 10)


class TestParse:
    def test_empty(self):
        w = parse_word("")
        assert len(w) == 0

    def test_roundtrip(self):
        w = parse_word("1001101")
        assert len(w) == 7
        assert w.count(1) == 4
        assert w.to01() == "1001101"

    def test_bad_character_position(self):
        with pytest.raises(WordParseError) as exc:
            parse_word("10a1")
        assert exc.value.position == 3

    @pytest.mark.parametrize(
        "text, position, char",
        [("x0110", 1, "x"), ("011 0110", 4, " "), ("0110\n", 5, "\n"), ("1b0c", 2, "b")],
    )
    def test_bad_character_start_middle_end(self, text, position, char):
        with pytest.raises(WordParseError) as exc:
            parse_word(text)
        assert (exc.value.position, exc.value.char) == (position, char)

    def test_positions_are_one_based(self):
        w = parse_word("011")
        assert [w.bit(i) for i in (1, 2, 3)] == [0, 1, 1]
        with pytest.raises(IndexError):
            w.bit(0)
        with pytest.raises(IndexError):
            w.bit(4)


class TestRankSelect:
    def test_rank_examples(self):
        w = parse_word("1001101")
        assert w.rank(1, 0) == 0
        assert w.rank(1, 4) == 2
        assert parse_word(REFERENCE_WORD).rank(1, 22) == 12

    def test_rank_range_error(self):
        w = parse_word("101")
        with pytest.raises(IndexError):
            w.rank(1, 4)
        with pytest.raises(IndexError):
            w.rank(1, -1)

    def test_select_examples(self):
        w = parse_word("1001101")
        assert w.select(1, 1) == 1
        assert w.select(1, 3) == 5
        with pytest.raises(ValueError):
            w.select(1, 5)

    def test_select_matches_linear_scan(self):
        for w in words_up_to(12):
            for x in (0, 1):
                positions = [p for p in range(1, len(w) + 1) if w.bit(p) == x]
                assert [w.select(x, i) for i in range(1, len(positions) + 1)] == positions, w
                with pytest.raises(ValueError):
                    w.select(x, len(positions) + 1)

    def test_select_inverts_rank(self, rng):
        for _ in range(50):
            w = random_word(rng, rng.randrange(1, 40))
            for x in (0, 1):
                for i in range(1, w.count(x) + 1):
                    pos = w.select(x, i)
                    assert w.bit(pos) == x
                    assert w.rank(x, pos) == i

    def test_rank_directory_matches_naive(self, rng):
        for n in (0, 1, 63, 64, 65, 130):
            w = random_word(rng, n)
            directory = RankDirectory(w)
            for i in range(n + 1):
                assert directory.rank(1, i) == w.rank(1, i)
                assert directory.rank(0, i) == w.rank(0, i)

    def test_rank_time_does_not_grow_with_length(self, rng):
        # Rank is one lookup: the median time of a batch of rank calls at
        # n = 2^20 stays within 4x of the time at n = 2^12. Sizes are
        # measured in turn so that machine drift hits both alike.
        sizes = (1 << 12, 1 << 20)
        directories = [RankDirectory(random_word(rng, n)) for n in sizes]
        positions = [[rng.randrange(n + 1) for _ in range(2000)] for n in sizes]
        times = ([], [])
        for _ in range(15):
            for directory, batch, runs in zip(directories, positions, times):
                rank = directory.rank
                start = time.perf_counter()
                for i in batch:
                    rank(1, i)
                runs.append(time.perf_counter() - start)
        small, large = map(statistics.median, times)
        assert large <= 4 * small, (small, large)


class TestProfiles:
    def test_reference_max_ones(self):
        assert max_ones_profile(parse_word(REFERENCE_WORD)) == REFERENCE_F1

    def test_reference_max_zeros(self):
        assert max_zeros_profile(parse_word(REFERENCE_WORD)) == REFERENCE_F0

    def test_short_examples(self):
        assert max_ones_profile(parse_word("1001101")) == (0, 1, 2, 2, 3, 3, 3, 4)
        assert max_zeros_profile(parse_word("1001101")) == (0, 1, 2, 2, 2, 3, 3, 3)
        assert max_ones_profile(parse_word("0000")) == (0, 0, 0, 0, 0)
        assert max_zeros_profile(parse_word("1111")) == (0, 0, 0, 0, 0)

    def test_min_ones_examples(self):
        assert min_ones_profile(parse_word("1001101")) == (0, 0, 0, 1, 2, 2, 3, 4)
        assert min_ones_profile(parse_word("1111")) == (0, 1, 2, 3, 4)
        # length-8 factors of the reference word reach down to 8 - 5 = 3 ones
        w = parse_word(REFERENCE_WORD)
        assert min_ones_profile(w)[8] == 3
        assert min(factor_ones_counts(w, 8)) == 3

    def test_profiles_match_bruteforce(self, rng):
        words = [random_word(rng, rng.randrange(0, 20)) for _ in range(40)]
        for w in words:
            fmax = max_ones_profile(w)
            fmin = min_ones_profile(w)
            for k in range(len(w) + 1):
                counts = factor_ones_counts(w, k) or [0]
                assert fmax[k] == max(counts)
                assert fmin[k] == min(counts)

    def test_subadditivity_exhaustive(self):
        # F1(j) - F1(i) <= F1(j - i), all words up to length 14
        for n in range(15):
            for w in all_words(n):
                f = max_ones_profile(w)
                for j in range(n + 1):
                    for i in range(j + 1):
                        assert f[j] - f[i] <= f[j - i]

    def test_subadditivity_random_longer(self, rng):
        for _ in range(20):
            w = random_word(rng, rng.randrange(40, 80))
            f = max_ones_profile(w)
            n = len(w)
            for j in range(n + 1):
                for i in range(j + 1):
                    assert f[j] - f[i] <= f[j - i]

    def test_step_property(self, rng):
        for _ in range(30):
            w = random_word(rng, rng.randrange(0, 30))
            for v in (max_ones_profile(w), max_zeros_profile(w)):
                assert all(v[k] - v[k - 1] in (0, 1) for k in range(1, len(w) + 1))

    def test_min_plus_maxzeros_identity(self, rng):
        for _ in range(30):
            w = random_word(rng, rng.randrange(0, 30))
            fmin = min_ones_profile(w)
            fzero = max_zeros_profile(w)
            assert all(fmin[k] + fzero[k] == k for k in range(len(w) + 1))

    def test_profile_symmetries(self, rng):
        for _ in range(30):
            w = random_word(rng, rng.randrange(0, 25))
            assert max_ones_profile(w) == max_ones_profile(w.reverse())
            assert max_ones_profile(w.complement()) == max_zeros_profile(w)

    def test_length_guard(self):
        w = BinaryWord(0, 100_001)
        with pytest.raises(ScaleError):
            max_ones_profile(w)


class TestWordOps:
    def test_complement_reverse_examples(self):
        w = parse_word("1001101")
        assert w.complement().to01() == "0110010"
        assert w.reverse().to01() == "1011001"
        assert parse_word("").reverse() == parse_word("")

    def test_involutions(self, rng):
        for _ in range(30):
            w = random_word(rng, rng.randrange(0, 40))
            assert w.complement().complement() == w
            assert w.reverse().reverse() == w

    def test_concatenation(self):
        assert (parse_word("10") + parse_word("011")).to01() == "10011"
        assert (parse_word("") + parse_word("1")).to01() == "1"

    def test_equality_and_hash(self):
        assert parse_word("0101") == parse_word("0101")
        assert parse_word("01") != parse_word("010")
        assert len({parse_word("01"), parse_word("01"), parse_word("10")}) == 2

    @pytest.mark.parametrize(
        "bits, length, message",
        [(0, -1, "length must be non-negative"), (-1, 3, "does not fit"), (8, 3, "does not fit")],
    )
    def test_constructor_rejects_bad_fields(self, bits, length, message):
        with pytest.raises(ValueError, match=message):
            BinaryWord(bits, length)

    def test_words_up_to_cover_all(self):
        seen = {w.to01() for w in words_up_to(3)}
        assert len(seen) == 1 + 2 + 4 + 8


class TestLinearWordOps:
    """Iteration, reversal and packing against bit-at-a-time oracles."""

    @staticmethod
    def assert_matches(w):
        symbols = bits_oracle(w)
        assert list(w) == symbols
        assert w.reverse() == pack_oracle(symbols[::-1])
        assert BinaryWord.from_bits(symbols) == w
        assert BinaryWord.from_bits(tuple(symbols)) == w

    def test_exhaustive_to_10(self):
        for w in words_up_to(10):
            self.assert_matches(w)

    def test_long_words(self, rng):
        for _ in range(5):
            self.assert_matches(random_word(rng, 2000))
        self.assert_matches(BinaryWord(0, 2000))
        self.assert_matches(BinaryWord((1 << 2000) - 1, 2000))

    @pytest.mark.parametrize("bad", [[0, 2], [1, -1], [0, 1, "1"], [None], [0, [1]], [0.5], [1.0, 0], [1, 0.0]])
    def test_from_bits_rejects_other_values(self, bad):
        with pytest.raises(ValueError, match="is not 0 or 1"):
            BinaryWord.from_bits(bad)
