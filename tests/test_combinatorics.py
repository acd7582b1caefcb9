import math

import pytest

from pnfkit import (
    ContractError,
    ScaleError,
    bound_check,
    census,
    class_statistics,
    count_ecrit,
    count_pnw,
    count_pnw_density,
    enumerate_pn,
    expand_gf,
    ext_bijection_check,
    ext_count,
    is_prefix_normal,
    parse_word,
    ratio_series,
    separating_suffix,
    upper_bound_threshold,
)
from pnfkit import combinatorics
from pnfkit.combinatorics import _GF_TABLE, _bound_rows, _pnf1_bits, resolve_threads
from pnfkit.normality import can_append_one
from conftest import (
    all_words,
    class_statistics_oracle,
    count_density_oracle,
    enumerate_pn_oracle,
    walk_counts_oracle,
    window_scan_profile,
    word_from_steps,
    words_up_to,
)

KNOWN_PNW = [2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697, 1273, 2279, 4185, 7568]


def fibonacci(n):
    # F(1) = F(2) = 1
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def partition_count(n):
    # pentagonal-number recurrence, an oracle independent of any walk
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


class TestEnumerate:
    def test_length_4_order(self):
        words = [w.to01() for w in enumerate_pn(4, 1)]
        assert words == ["1111", "1110", "1101", "1100", "1010", "1001", "1000", "0000"]

    def test_length_one(self):
        assert {w.to01() for w in enumerate_pn(1, 1)} == {"0", "1"}

    def test_length_eight_count(self):
        assert sum(1 for _ in enumerate_pn(8, 1)) == 70

    def test_zero_bit_enumeration_is_complement(self):
        ones = [w.complement().to01() for w in enumerate_pn(5, 1)]
        zeros = [w.to01() for w in enumerate_pn(5, 0)]
        assert ones == zeros
        assert zeros == sorted(zeros)  # 0-branch first: ascending lex

    def test_all_words_normal_and_complete(self):
        for n in range(9):
            listed = set(enumerate_pn(n, 1))
            assert all(is_prefix_normal(w, 1) for w in listed)
            direct = {w for w in all_words(n) if is_prefix_normal(w, 1)}
            assert listed == direct

    def test_guard(self):
        with pytest.raises(ScaleError):
            next(enumerate_pn(31, 1))


class TestCounts:
    def test_known_counts(self):
        for n, expected in enumerate(KNOWN_PNW, start=1):
            assert count_pnw(n) == expected

    def test_empty_length(self):
        assert count_pnw(0) == 1

    def test_n17_continuation(self):
        # frozen from the walk; the crit1 recurrence below pins it a
        # second way: 2 * 7568 - 1139
        assert count_pnw(17) == 13997
        assert count_ecrit(16) == 1139

    def test_counts_match_bruteforce_deciders(self):
        for n in range(11):
            direct = sum(1 for w in all_words(n) if is_prefix_normal(w, 1))
            assert count_pnw(n) == direct

    def test_ecrit_small(self):
        assert count_ecrit(1) == 1  # the word "0"
        assert count_pnw(2) == 2 * count_pnw(1) - count_ecrit(1) == 3

    def test_crit1_recurrence(self):
        c = census(16, include_leaf_ecrit=True)
        for n in range(1, 17):
            assert c.pnw[n] == 2 * c.pnw[n - 1] - c.ecrit[n - 1]

    def test_parallel_census_equals_serial(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_FORK_MIN_LEAVES", 0)
        serial = census(15, include_leaf_ecrit=True, threads=1)
        forked = census(15, include_leaf_ecrit=True, threads=2)
        assert serial == forked

    def test_split_depth_invariance(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_FORK_MIN_LEAVES", 0)
        base = census(14, include_leaf_ecrit=True, threads=1)
        for split in (2, 5, 9):
            monkeypatch.setattr(combinatorics, "DEFAULT_SPLIT_DEPTH", split)
            forked = census(14, include_leaf_ecrit=True, threads=2)
            assert forked == base, split

    def test_threads_env_caps_default(self, monkeypatch):
        monkeypatch.setenv("PNFKIT_THREADS", "1")
        assert resolve_threads() == 1
        monkeypatch.setenv("PNFKIT_THREADS", "bogus")
        with pytest.raises(ValueError):
            resolve_threads()
        assert resolve_threads(4) == 4

    def test_partition_lower_bound(self):
        c = census(20)
        for n in range(1, 21):
            assert c.pnw[n] >= partition_count(n)

    def test_power_lower_bound(self):
        c = census(18)
        for n in range(1, 10):
            assert c.pnw[2 * n] >= 2**n

    def test_complement_symmetry(self):
        for n in range(1, 13):
            assert sum(1 for _ in enumerate_pn(n, 0)) == count_pnw(n)


class TestWalkKernel:
    """The walk kernel against the plain walks it replaced, n <= 18."""

    def test_census_arrays(self):
        for n in range(19):
            for leaf_ecrit in (False, True):
                nodes, ecrit, hist = walk_counts_oracle((0,), n, leaf_ecrit, True)
                c = census(n, include_leaf_ecrit=leaf_ecrit, threads=1)
                assert c.pnw == tuple(nodes), (n, leaf_ecrit)
                assert c.ecrit == tuple(ecrit), (n, leaf_ecrit)
                assert c.by_density == tuple(hist), (n, leaf_ecrit)

    def test_every_density(self):
        for n in range(19):
            for d in range(n + 1):
                assert count_pnw_density(n, d, threads=1) == count_density_oracle((0,), n, d), (n, d)

    @pytest.mark.parametrize("root", ["10", "110", "1101"])
    def test_ext_count_from_roots(self, root):
        w = parse_word(root)
        prefix = tuple(w.prefix_counts(1))
        for n in range(len(root), 19):
            m = n - len(root)
            assert ext_count(w, m) == walk_counts_oracle(prefix, n, False, False)[0][n], n
            for d in range(n + 2):
                assert ext_count(w, m, d) == count_density_oracle(prefix, n, d), (n, d)

    @pytest.mark.parametrize("x", [0, 1])
    def test_enumeration_order(self, x):
        for n in range(19):
            assert list(enumerate_pn(n, x)) == list(enumerate_pn_oracle(n, x)), n

    def test_zero_child_inherits_append_one(self):
        # s_{m+1}(k) = s_m(k-1) + w_k for a 0-child: no slack shrinks, so
        # the walk hands the parent's verdict to its 0-child untested.
        for n in range(1, 15):
            for w in enumerate_pn(n, 1):
                if w.bit(1) == 1 and can_append_one(w):
                    assert can_append_one(w + parse_word("0")), w

    def test_window_prunes_to_reachable_nodes(self):
        # With a window only nodes that can still reach it are visited;
        # the histogram outside the window stays empty.
        nodes, _, hist = combinatorics._walk_counts((0,), 12, 5, 7, False)
        full = census(12, threads=1).by_density
        assert hist == [0] * 5 + list(full[5:8]) + [0] * 5
        assert nodes[12] == sum(full[5:8])
        assert nodes[0] == 1
        assert combinatorics._walk_counts((0, 1, 2), 12, 0, 1, False) == ([0] * 13,) * 3

    @pytest.mark.parametrize("split", [4, 8, 12])
    def test_density_fan_out_invariance(self, monkeypatch, split):
        monkeypatch.setattr(combinatorics, "DEFAULT_SPLIT_DEPTH", split)
        monkeypatch.setattr(combinatorics, "_FORK_MIN_LEAVES", 0)
        for d in range(16):
            assert count_pnw_density(15, d, threads=2) == count_pnw_density(15, d, threads=1), d

    def test_fork_only_for_enough_work(self, monkeypatch):
        # A narrow window, or a shallow tree, walks in-process; a walk
        # with enough leaves forks.
        pools = []
        real = combinatorics.ProcessPoolExecutor

        def recording_pool(**options):
            pools.append(options)
            return real(**options)

        monkeypatch.setattr(combinatorics, "ProcessPoolExecutor", recording_pool)
        for d in (2, 5, 24, 27):
            assert count_pnw_density(28, d, threads=2) == count_density_oracle((0,), 28, d)
        assert census(16, threads=2).pnw[16] == 7568
        assert pools == []
        assert count_pnw_density(24, 10, threads=2) == count_density_oracle((0,), 24, 10)
        assert pools == [{"max_workers": 2}]


class TestDensityCounts:
    def test_small_density_formulas(self):
        assert count_pnw_density(5, 0) == 1
        assert count_pnw_density(5, 1) == 1
        assert count_pnw_density(6, 2) == 5  # n - 1

    def test_pnw_4_3(self):
        assert count_pnw_density(4, 3) == 2
        dense = [w.to01() for w in enumerate_pn(4, 1) if w.count(1) == 3]
        assert dense == ["1110", "1101"]

    def test_histogram_consistency(self):
        c = census(12)
        assert sum(c.by_density) == c.pnw[12]
        for d in range(13):
            assert c.by_density[d] == count_pnw_density(12, d)

    def test_matches_enumeration(self):
        for n in range(10):
            for d in range(n + 1):
                direct = sum(1 for w in enumerate_pn(n, 1) if w.count(1) == d)
                assert count_pnw_density(n, d) == direct

    def test_bad_density_rejected(self):
        with pytest.raises(ValueError):
            count_pnw_density(4, 5)


class TestGeneratingFunctions:
    def test_f0_all_ones(self):
        assert expand_gf(0, 10) == (1,) * 11

    def test_f2_linear(self):
        coeffs = expand_gf(2, 12)
        assert all(coeffs[n] == n - 1 for n in range(2, 13))

    def test_f3_disagrees_with_floor_formula(self):
        # The floor closed form (n+1)^2/4 overshoots; the walk and the
        # rational series agree with each other instead.
        assert expand_gf(3, 4)[4] == count_pnw_density(4, 3) == 2
        assert (4 + 1) ** 2 // 4 == 6  # != 2

    def test_series_match_walk(self):
        for d in range(7):
            coeffs = expand_gf(d, 28)
            for n in range(d, 29):
                assert coeffs[n] == count_pnw_density(n, d), (d, n)

    def test_expansion_satisfies_recurrence(self):
        for d in range(7):
            num, den = _GF_TABLE[d]
            assert den[0] == 1  # the recurrence solves in exact integers
            coeffs = expand_gf(d, 30)
            for k in range(31):
                conv = sum(den[i] * coeffs[k - i] for i in range(min(k, len(den) - 1) + 1))
                expected = num[k] if k < len(num) else 0
                assert conv == expected

    def test_unsupported_density(self):
        with pytest.raises(ValueError):
            expand_gf(7, 10)

    def test_order_guard(self):
        with pytest.raises(ScaleError):
            expand_gf(2, 201)

    def test_negative_order_is_not_a_scale_refusal(self):
        with pytest.raises(ValueError) as exc:
            expand_gf(2, -1)
        assert not isinstance(exc.value, ScaleError)


class TestExtensions:
    def test_closed_forms_at_n6(self):
        n = 6
        assert ext_count(parse_word("0" * n), n) == 1
        assert ext_count(parse_word("1" * n), n) == 2**n
        assert ext_count(parse_word("1" * (n - 1) + "0"), n) == 2**n - 1
        assert ext_count(parse_word("1" * (n - 2) + "01"), n) == 2**n - 5
        assert ext_count(parse_word("1" * (n - 2) + "00"), n) == 2**n - (n + 1)
        assert ext_count(parse_word("10" * (n // 2)), n) == fibonacci(n + 2)
        assert ext_count(parse_word("1" + "0" * (n - 2) + "1"), n) == 3
        assert ext_count(parse_word("1" + "0" * (n - 1)), n) == n + 1

    def test_odd_fibonacci_form(self):
        n = 7
        assert ext_count(parse_word("10" * ((n - 1) // 2) + "1"), n) == fibonacci(n + 1)

    def test_fib_value_at_length_8(self):
        assert ext_count(parse_word("10101010"), 8) == fibonacci(10) == 55

    def test_density_filter_matches_direct(self):
        w = parse_word("10")
        for m in range(7):
            for d in range(m + 3):
                direct = 0
                for bits in range(1 << m):
                    u = "".join("1" if bits >> i & 1 else "0" for i in range(m))
                    full = parse_word("10" + u)
                    if full.count(1) == d and is_prefix_normal(full, 1):
                        direct += 1
                assert ext_count(w, m, d) == direct

    def test_contract_and_guard(self):
        with pytest.raises(ContractError):
            ext_count(parse_word("10110"), 2)
        with pytest.raises(ScaleError):
            ext_count(parse_word("1"), 30)
        with pytest.raises(ValueError):
            ext_count(parse_word("1"), -1)

    def test_bijection_examples(self):
        assert ext_bijection_check(6, 3)
        assert ext_bijection_check(4, 4)
        assert ext_bijection_check(5, 1)

    def test_bijection_full_range(self):
        for n in range(1, 11):
            for d in range(1, n + 1):
                if n + d >= 3:
                    assert ext_bijection_check(n, d), (n, d)

    def test_bijection_degenerate_pair(self):
        # (n, d) = (1, 1) asks for an extension of length -1; the
        # operation refuses rather than comparing against pnw(1, 1) = 1.
        with pytest.raises(ContractError):
            ext_bijection_check(1, 1)


class TestClassStatistics:
    def test_length_4_classes(self):
        stats = class_statistics(4, include_listing=True)
        assert stats.class_count == 8
        assert stats.max_class_size == 4
        reps = [c.representative.to01() for c in stats.classes]
        assert reps == ["1111", "1110", "1101", "1100", "1010", "1001", "1000", "0000"]
        assert [c.size for c in stats.classes] == [1, 2, 2, 3, 2, 1, 4, 1]
        by_rep = {c.representative.to01(): c for c in stats.classes}
        assert {m.to01() for m in by_rep["1000"].members} == {"1000", "0100", "0010", "0001"}
        assert {m.to01() for m in by_rep["1100"].members} == {"1100", "0110", "0011"}

    def test_length_one(self):
        stats = class_statistics(1)
        assert stats.class_count == 2
        assert stats.max_class_size == 1

    def test_class_count_equals_pnw(self):
        for n in range(11):
            assert class_statistics(n).class_count == count_pnw(n)

    def test_class_key_matches_window_scan(self):
        for w in words_up_to(12):
            expected = word_from_steps(window_scan_profile(w, 1), 1)
            assert _pnf1_bits(w.packed, len(w)) == expected.packed

    def test_listing_matches_sorted_grouping(self):
        for n in range(9):
            assert class_statistics(n, include_listing=True) == class_statistics_oracle(n)

    def test_sizes_sum_to_power(self):
        for n in range(11):
            assert sum(c.size for c in class_statistics(n).classes) == 2**n

    def test_guards(self):
        with pytest.raises(ScaleError):
            class_statistics(21)
        with pytest.raises(ScaleError):
            class_statistics(9, include_listing=True)

    def test_enum_report(self):
        c = census(8, include_leaf_ecrit=True)
        assert c.pnw[8] == 70
        assert class_statistics(8).class_count == 70
        assert sum(c.by_density) == 70
        assert c.ecrit[8] == 15


class TestSeparatingSuffix:
    def test_digit_difference_example(self):
        sep = separating_suffix(parse_word("11"), parse_word("10"))
        assert sep.suffix.to01() == "0011"
        assert sep.witness == "v"
        assert is_prefix_normal(parse_word("110011"), 1)
        assert not is_prefix_normal(parse_word("100011"), 1)

    def test_prefix_case_example(self):
        sep = separating_suffix(parse_word("1"), parse_word("10"))
        v_ext = parse_word("1") + sep.suffix
        w_ext = parse_word("10") + sep.suffix
        assert is_prefix_normal(v_ext, 1) != is_prefix_normal(w_ext, 1)

    def test_witness_side_is_the_normal_one(self):
        sep = separating_suffix(parse_word("10"), parse_word("11"))
        normal_word = parse_word("10") if sep.witness == "v" else parse_word("11")
        assert is_prefix_normal(normal_word + sep.suffix, 1)

    def test_exhaustive_to_length_5(self):
        # acceptance pushes this to length 7
        words = [
            w
            for n in range(1, 6)
            for w in enumerate_pn(n, 1)
            if len(w) and w.bit(1) == 1
        ]
        for v in words:
            for w in words:
                if v == w:
                    continue
                sep = separating_suffix(v, w)
                assert is_prefix_normal(v + sep.suffix, 1) != is_prefix_normal(
                    w + sep.suffix, 1
                )

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            separating_suffix(parse_word("10"), parse_word("10"))
        with pytest.raises(ContractError):
            separating_suffix(parse_word("0"), parse_word("10"))
        with pytest.raises(ContractError):
            separating_suffix(parse_word("10110"), parse_word("10"))


class TestBoundsAndRatios:
    def test_bound_rows(self):
        rows = bound_check(16)
        by_n = {r.n: r for r in rows}
        assert by_n[16].pnw == 7568
        assert by_n[16].upper_bound == pytest.approx(8192.0)
        assert by_n[16].upper_holds
        assert by_n[8].upper_bound == pytest.approx(64.0)
        assert not by_n[8].upper_holds  # 70 > 64; the bound is asymptotic, small n exempt
        assert by_n[4].lower_bound < 1.0  # vacuous at small n

    def test_rows_from_counts(self):
        pnw = census(18).pnw
        assert _bound_rows(pnw) == bound_check(18)
        assert _bound_rows(pnw[:17]) == bound_check(16)

    def test_threshold(self):
        rows = bound_check(16)
        assert upper_bound_threshold(rows) == 14
        assert upper_bound_threshold(bound_check(8)) is None

    def test_ratio_rows(self):
        rows = ratio_series(16)
        by_n = {r.n: r for r in rows}
        assert by_n[2].growth_ratio == pytest.approx(1.5)
        assert by_n[16].growth_ratio == pytest.approx(7568 / 4185)
        assert by_n[1].ecrit_ratio == pytest.approx(0.5)
        assert math.isnan(by_n[1].ecrit_ratio_scaled)
        assert by_n[3].ecrit_ratio_scaled == pytest.approx(
            by_n[3].ecrit_ratio * 3 / math.log(3)
        )
