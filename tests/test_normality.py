import pytest

from pnfkit import (
    ContractError,
    GapDecomposition,
    can_append_one,
    check_gap_inequalities,
    enumerate_pn,
    is_prefix_normal,
    parse_word,
    prefix_equivalent,
)
from pnfkit.normality import DECIDERS
from conftest import all_words, random_word


class TestDefinitionDecider:
    def test_intro_examples(self):
        assert is_prefix_normal(parse_word("11010"), 1)
        assert not is_prefix_normal(parse_word("10110"), 1)

    def test_append_example(self):
        assert is_prefix_normal(parse_word("1100110"), 1)
        assert not is_prefix_normal(parse_word("11001101"), 1)

    def test_all_zero_words(self):
        for n in (0, 1, 5):
            assert is_prefix_normal(parse_word("0" * n), 1)

    def test_zero_normality_via_complement(self):
        assert is_prefix_normal(parse_word("0011011"), 0)
        assert not is_prefix_normal(parse_word("1100110"), 0)
        assert is_prefix_normal(parse_word("1111"), 0)

    @pytest.mark.parametrize("x", [2, -1, "1"])
    def test_symbol_rejected_with_one_message(self, x):
        w = parse_word("1001101")
        calls = (
            lambda: is_prefix_normal(w, x),
            lambda: prefix_equivalent(w, w, x),
            lambda: next(enumerate_pn(4, x)),
        )
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"symbol must be 0 or 1, got {x!r}"


class TestCharacterizations:
    def test_known_verdicts(self):
        for text, expected in [("11010", True), ("10110", False), ("", True), ("1011", False)]:
            verdicts = {name: decide(parse_word(text)) for name, decide in DECIDERS.items()}
            assert set(verdicts.values()) == {expected}, (text, verdicts)

    def test_agreement_exhaustive_small(self):
        # the acceptance suite pushes this to n = 16
        for n in range(12):
            for w in all_words(n):
                verdicts = {name: decide(w) for name, decide in DECIDERS.items()}
                assert len(set(verdicts.values())) == 1, (w, verdicts)


class TestGapDecomposition:
    def test_decomposition_roundtrip(self):
        decomp = GapDecomposition.of(parse_word("1101001"))
        assert decomp.density == 4
        assert decomp.gaps == (1, 2, 3, 1)
        assert decomp.rebuild() == parse_word("1101001")

    def test_roundtrip_random(self, rng):
        for _ in range(40):
            w = random_word(rng, rng.randrange(1, 30))
            if w.bit(1) != 1:
                continue
            decomp = GapDecomposition.of(w)
            assert sum(decomp.gaps) == len(w)
            assert decomp.rebuild() == w

    def test_requires_leading_one(self):
        with pytest.raises(ContractError):
            GapDecomposition.of(parse_word("01"))
        with pytest.raises(ContractError):
            GapDecomposition.of(parse_word(""))

    def test_gap_checker_examples(self):
        assert check_gap_inequalities(parse_word("1101001"))
        assert not check_gap_inequalities(parse_word("1011"))
        assert check_gap_inequalities(parse_word("1"))
        # zero-initial delegate: 0^n yes, anything else no
        assert check_gap_inequalities(parse_word("00000"))
        assert not check_gap_inequalities(parse_word("0100"))


class TestLanguageProperties:
    def test_prefix_closed(self):
        # checking the one-shorter prefix at every n covers all prefixes
        for n in range(1, 17):
            for w in enumerate_pn(n, 1):
                prefix = parse_word(w.to01()[: n - 1])
                assert is_prefix_normal(prefix, 1)

    def test_closure_under_leading_ones_and_trailing_zeros(self, rng):
        for _ in range(40):
            w = random_word(rng, rng.randrange(0, 14))
            if not is_prefix_normal(w, 1):
                continue
            k = rng.randrange(0, 5)
            assert is_prefix_normal(parse_word("1" * k + w.to01()), 1)
            assert is_prefix_normal(parse_word(w.to01() + "0" * k), 1)

    def test_left_extension_exists(self):
        for n in range(13):
            for w in all_words(n):
                assert is_prefix_normal(parse_word("1" * n + w.to01()), 1)


class TestAppendOne:
    def test_known_blocker(self):
        assert not can_append_one(parse_word("1100110"))

    def test_all_ones(self):
        for n in (0, 3, 7):
            assert can_append_one(parse_word("1" * n))

    def test_1100(self):
        assert can_append_one(parse_word("1100"))
        assert is_prefix_normal(parse_word("11001"), 1)

    def test_contract_violation(self):
        with pytest.raises(ContractError):
            can_append_one(parse_word("10110"))

    def test_matches_definition_exhaustive(self):
        for n in range(17):
            for w in enumerate_pn(n, 1):
                extended = parse_word(w.to01() + "1")
                assert can_append_one(w) == is_prefix_normal(extended, 1)
