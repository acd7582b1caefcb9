"""Enumeration of prefix normal words and the identities around it.

The enumeration engine is one iterative depth-first walk, `_walk`, of
the prefix-closed tree of 1-prefix-normal words: appending 0 always
stays in the language, appending 1 is gated by the append-one test. One
walk to depth n yields, per length m <= n, the word count pnw(m), the
extension-critical count ecrit(m) and the density histogram; given a
density window lo..hi it visits only the subtrees that can still reach
it. Census, density and extension counts, the split-depth root
collection and the word listing all run through it.

Append-one test. For a word w of length m with ones-prefix counts P,
w1 is 1-prefix-normal iff every slack

    s_m(k) = P(k) + P(m+1-k) - P(m) - 1,    k = 1..m,

is non-negative. Appending b gives s_{m+1}(1) = w_1 - 1 and
s_{m+1}(k) = s_m(k-1) + w_k - b for k >= 2, so the walk keeps the m
slacks of a node in the fields of one int and derives a child's with a
shift and two adds; the test itself is one mask compare.

Inherited test. With b = 0 no slack shrinks, so if w starts with 1 and
w1 is prefix normal, then w01 is too: the 0-child of a node that passed
the test passes without running it.

Folded leaf level. A node at depth n-1 counts (and, when listing, emits)
its one or two leaf children in place instead of pushing them; the
leaves are tested only when ecrit(n) is asked for, and the 0-leaf
inherits its verdict as above.

Counting walks may be forked at a fixed depth into independent subtree
tasks, when the root lies above it and the density window leaves enough
work to repay starting the workers; `_fan_out` decides this for every
count, from any root. Totals are exact integers summed in task order, so
parallel and sequential runs are bit-identical.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, repeat
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .bitword import BinaryWord, _check_symbol, _pnf1_bits
from .errors import ContractError, PnfkitError, check_scale
from .normality import is_prefix_normal

ENUM_LENGTH_GUARD = 30
CLASS_SCAN_GUARD = 20
CLASS_LISTING_GUARD = 8
GF_MAX_DENSITY = 6
GF_ORDER_GUARD = 200
DEFAULT_SPLIT_DEPTH = 12
_FORK_MIN_LEAVES = 1 << 17

THREADS_ENV_VAR = "PNFKIT_THREADS"


def resolve_threads(threads: int | None = None) -> int:
    """Worker count for counting walks: explicit value, else the CPUs this
    process may run on, capped by the PNFKIT_THREADS environment variable."""
    if threads is not None:
        return max(1, threads)
    count = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    cap = os.environ.get(THREADS_ENV_VAR)
    if cap:
        try:
            count = min(count, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {cap!r}") from None
    return count


# ---------------------------------------------------------------------------
# Core walk
# ---------------------------------------------------------------------------

Tally = tuple[list[int], list[int], list[int]]


def _new_tally(n: int) -> Tally:
    return ([0] * (n + 1), [0] * (n + 1), [0] * (n + 1))


def _walk(
    root_bits: int,
    m: int,
    n: int,
    lo: int,
    hi: int,
    leaf_ecrit: bool,
    tally: Tally,
    emit: bool,
) -> Iterator[int]:
    """Walk the subtree under a 1-prefix-normal root down to depth n.

    The root is the word of length m <= n packed in root_bits (position
    i at bit i - 1). Only nodes that can still reach a leaf with lo..hi
    ones are visited. tally is (nodes, ecrit, hist), three lists of
    length n + 1 the walk adds to: visited nodes per depth, those among
    them that cannot take a 1, and the leaf density histogram. Each leaf
    is recorded once, in hist: the walk leaves nodes[n] alone, and a
    caller that reads it fills it in as sum(hist). ecrit[n] is counted
    only with leaf_ecrit. With emit set the walk yields every leaf as a
    packed int, 1-child first, so in descending lexicographic order;
    otherwise it yields nothing.
    """
    nodes, ecrit, hist = tally
    t = root_bits.bit_count()
    if t > hi or t + n - m < lo:
        return
    # A slack lies in -1..n-1 on a prefix normal word; field k holds
    # s(k) + g with g > n - 1, so s(k) >= 0 iff the field's top bit is set.
    width = n.bit_length() + 1
    g = 1 << width - 1
    unit = [1 << width * i for i in range(n + 1)]
    ones = list(accumulate(unit, initial=0))  # 1 in each of the first i fields
    tops = [f << width - 1 for f in ones]
    one_step = [f - g for f in ones]
    zero_step = g - 1
    # slack packs s(1..m); word holds w_k in field k; bits is the packed word.
    slack = word = 0
    bits = root_bits
    for i in range(1, m + 1):
        b = bits >> i - 1 & 1
        word += b * unit[i - 1]
        slack = (slack << width) + word - b * ones[i] + zero_step + b
    if m == n:
        hist[t] += 1
        if leaf_ecrit and slack & tops[n] != tops[n]:
            ecrit[n] += 1
        if emit:
            yield bits
        return
    last = n - 1
    stack: list[tuple[int, int, int, int, bool, int]] = []
    ok = False  # True when the verdict is inherited
    while True:
        nodes[m] += 1
        if not ok:
            ok = slack & tops[m] == tops[m]
            if not ok:
                ecrit[m] += 1
        slack <<= width
        if m == last:
            if ok and t < hi:
                hist[t + 1] += 1
                if leaf_ecrit and (slack + word + unit[m] - one_step[n]) & tops[n] != tops[n]:
                    ecrit[n] += 1
                if emit:
                    yield bits | 1 << m
            if t >= lo:
                hist[t] += 1
                if leaf_ecrit and not (ok and m > 0) and (slack + word + zero_step) & tops[n] != tops[n]:
                    ecrit[n] += 1
                if emit:
                    yield bits
        else:
            if t + last - m >= lo:
                stack.append((m + 1, t, slack + word + zero_step, word, ok and m > 0, bits))
            if ok and t < hi:
                word += unit[m]
                if emit:
                    bits |= 1 << m
                m += 1
                t += 1
                slack += word - one_step[m]
                ok = False
                continue
        if not stack:
            return
        m, t, slack, word, ok, bits = stack.pop()


def _walk_counts(root_bits: int, m: int, n: int, lo: int, hi: int, leaf_ecrit: bool) -> Tally:
    """The tally of one counting walk (see _walk), with nodes[n] filled
    in as the sum of the leaf histogram."""
    tally = _new_tally(n)
    # A counting walk never yields: one next() runs it to the end.
    next(_walk(root_bits, m, n, lo, hi, leaf_ecrit, tally, False), None)
    tally[0][n] = sum(tally[2])
    return tally


def _fan_out(root_bits: int, m: int, n: int, lo: int, hi: int, leaf_ecrit: bool, threads: int | None) -> Tally:
    """The tally of the subtree under any root (see _walk), forked into one
    task per node at DEFAULT_SPLIT_DEPTH when the root lies above it, more
    than one worker is available and the window leaves enough work."""
    workers = resolve_threads(threads)
    split_depth = DEFAULT_SPLIT_DEPTH
    depth = n - split_depth
    fork = workers > 1 and m < split_depth and depth > 1
    if fork:
        # The shallow walk keeps the roots that can still reach the window:
        # a root at split_depth may gain up to depth more ones.
        shallow = _new_tally(split_depth)
        roots = list(_walk(root_bits, m, split_depth, max(0, lo - depth), hi, False, shallow, True))
        # Starting a pool costs tens of milliseconds, which a walk bounded by
        # fewer than _FORK_MIN_LEAVES leaves does not repay at two workers:
        # such a walk stays here. The leaves under a root with t ones are
        # bounded by the ways of placing lo - t .. hi - t more ones below it.
        reach = [
            sum(math.comb(depth, k) for k in range(max(0, lo - t), min(hi - t, depth) + 1))
            for t in range(split_depth + 1)
        ]
        fork = sum(reach[bits.bit_count()] for bits in roots) >= _FORK_MIN_LEAVES
    if not fork:
        return _walk_counts(root_bits, m, n, lo, hi, leaf_ecrit)
    pad = [0] * (depth + 1)
    tally = (shallow[0][:split_depth] + pad, shallow[1][:split_depth] + pad, [0] * (n + 1))
    chunk = max(1, len(roots) // (workers * 8))
    tasks = (roots, repeat(split_depth), repeat(n), repeat(lo), repeat(hi), repeat(leaf_ecrit))
    from concurrent.futures import ProcessPoolExecutor  # only a forking walk loads it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        for sub in pool.map(_walk_counts, *tasks, chunksize=chunk):
            tally = tuple(list(map(add, total, part)) for total, part in zip(tally, sub))
    return tally


class Census(NamedTuple):
    """Per-length counts from one walk to depth n.

    pnw[m] counts the 1-prefix-normal words of length m; ecrit[m] counts
    those whose 1-extension leaves the language. ecrit[n] is only
    meaningful when the census was taken with include_leaf_ecrit.
    by_density[d] counts those of length n with d ones.
    """

    n: int
    pnw: tuple[int, ...]
    ecrit: tuple[int, ...]
    by_density: tuple[int, ...]


def census(
    n: int,
    *,
    include_leaf_ecrit: bool = False,
    threads: int | None = None,
    unsafe_large: bool = False,
) -> Census:
    """Count 1-prefix-normal words (and critical words) for every length
    up to n in a single walk, forked across subtrees when threads > 1."""
    check_scale("enumeration length", n, ENUM_LENGTH_GUARD, unsafe_large)
    nodes, ecrit, hist = _fan_out(0, 0, n, 0, n, include_leaf_ecrit, threads)
    return Census(n, tuple(nodes), tuple(ecrit), tuple(hist))


# ---------------------------------------------------------------------------
# Enumeration and counts
# ---------------------------------------------------------------------------


def enumerate_pn(n: int, x: int = 1, *, unsafe_large: bool = False) -> Iterator[BinaryWord]:
    """Yield every x-prefix-normal word of length n exactly once.

    Depth-first with the x-branch explored first, so the output order is
    descending lexicographic for x = 1 (1111, 1110, ..., 1000, 0000 at
    n = 4) and ascending for x = 0.
    """
    _check_symbol(x)
    check_scale("enumeration length", n, ENUM_LENGTH_GUARD, unsafe_large)
    # The 0-prefix-normal words are the complements of the 1-prefix-normal ones.
    flip = 0 if x == 1 else (1 << n) - 1
    for bits in _walk(0, 0, n, 0, n, False, _new_tally(n), True):
        yield BinaryWord(bits ^ flip, n)


def count_pnw(n: int, *, unsafe_large: bool = False) -> int:
    """pnw(n): the number of 1-prefix-normal words of length n."""
    return census(n, unsafe_large=unsafe_large).pnw[n]


def count_ecrit(n: int, *, unsafe_large: bool = False) -> int:
    """ecrit(n): 1-prefix-normal words of length n that cannot take a 1."""
    return census(n, include_leaf_ecrit=True, unsafe_large=unsafe_large).ecrit[n]


def count_pnw_density(n: int, d: int, *, unsafe_large: bool = False) -> int:
    """pnw(n, d): 1-prefix-normal words of length n with exactly d ones,
    forked like census."""
    check_scale("enumeration length", n, ENUM_LENGTH_GUARD, unsafe_large)
    if not 0 <= d <= n:
        raise ValueError(f"density {d} out of range 0..{n}")
    return _fan_out(0, 0, n, d, d, False, None)[2][d]


# ---------------------------------------------------------------------------
# Class statistics (prefix-equivalence classes of sigma^n)
# ---------------------------------------------------------------------------


class EquivalenceClass(NamedTuple):
    representative: BinaryWord
    size: int
    members: tuple[BinaryWord, ...] | None = None


class ClassStatistics(NamedTuple):
    n: int
    class_count: int
    max_class_size: int
    classes: tuple[EquivalenceClass, ...]


def class_statistics(
    n: int, *, include_listing: bool = False, unsafe_large: bool = False
) -> ClassStatistics:
    """Group all 2^n words by their 1-prefix-normal form.

    Classes come out ordered by representative, descending
    lexicographically, matching the walk order of enumerate_pn(n, 1).
    The scan reads v = 2^n - 1 down to 0 as words with position 1 in
    the top bit, which is descending lexicographic order; the key is the
    pnf1 of v's own packing, the reversed word, which has the same pnf1.
    A class's pnf1 is its lexicographically largest member, since its
    ones-prefix counts dominate every member's, so the classes enter the
    dict in output order and each member list comes out sorted.
    """
    check_scale("class scan length", n, CLASS_SCAN_GUARD, unsafe_large)
    if include_listing:
        check_scale("class listing length", n, CLASS_LISTING_GUARD, unsafe_large)
    words = range((1 << n) - 1, -1, -1)
    members: dict[int, list[BinaryWord]] = {}
    if include_listing:
        for v in words:
            members.setdefault(_pnf1_bits(v, n), []).append(BinaryWord(v, n).reverse())
        sizes = {key: len(listed) for key, listed in members.items()}
    else:
        sizes = Counter(map(_pnf1_bits, words, repeat(n)))
    classes = tuple(
        EquivalenceClass(
            BinaryWord(key, n), size, tuple(members[key]) if include_listing else None
        )
        for key, size in sizes.items()
    )
    return ClassStatistics(
        n=n,
        class_count=len(classes),
        max_class_size=max(sizes.values(), default=0),
        classes=classes,
    )


# ---------------------------------------------------------------------------
# Generating functions for fixed density
# ---------------------------------------------------------------------------


# Rational forms of the fixed-density counting series, densities 0..6:
# (numerator coefficients, the k of each denominator factor 1 - x^k).
_GF_TABLE: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    0: ((1,), (1,)),
    1: ((0, 1), (1,)),
    2: ((0, 0, 1), (1, 1)),
    3: ((0, 0, 0, 1), (2, 1, 1)),
    4: ((0, 0, 0, 0, 1), (3, 1, 1, 1)),
    5: ((0, 0, 0, 0, 0, 1, 1, 1), (4, 2, 2, 1, 1)),
    6: ((0, 0, 0, 0, 0, 0, 1, 1, 1, 1), (5, 3, 2, 1, 1, 1)),
}


def expand_gf(d: int, order: int) -> tuple[int, ...]:
    """Coefficients 0..order of the density-d counting series.

    Coefficient n is pnw(n, d). Closed forms are only known for d <= 6.
    The numerator is divided by each factor 1 - x^k in turn, exactly in
    integers: that division is a running sum with stride k.
    """
    if not 0 <= d <= GF_MAX_DENSITY:
        raise ValueError(f"no closed generating function for density {d} (supported: 0..{GF_MAX_DENSITY})")
    # The order guard is fixed: unsafe_large does not lift it.
    check_scale("series order", order, GF_ORDER_GUARD, False)
    num, factors = _GF_TABLE[d]
    coeffs = (list(num) + [0] * (order + 1))[: order + 1]
    for k in factors:
        for i in range(k, order + 1):
            coeffs[i] += coeffs[i - k]
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Extensions of a fixed prefix
# ---------------------------------------------------------------------------


def ext_count(
    w: BinaryWord,
    m: int,
    d: int | None = None,
    *,
    unsafe_large: bool = False,
) -> int:
    """Number of length-m words u such that w u is 1-prefix-normal
    (restricted to total density d when given), forked like census."""
    if m < 0:
        raise ValueError("extension length must be non-negative")
    total_len = len(w) + m
    check_scale("enumeration length", total_len, ENUM_LENGTH_GUARD, unsafe_large)
    if not is_prefix_normal(w, 1, unsafe_large=unsafe_large):
        raise ContractError("ext_count requires a 1-prefix-normal base word")
    if d is not None and d < 0:
        raise ValueError("density must be non-negative")
    # A window no leaf can reach (d > total_len) ends the walk at its root.
    lo, hi = (0, total_len) if d is None else (d, d)
    return sum(_fan_out(w.packed, len(w), total_len, lo, hi, False, None)[2])


def ext_bijection_check(n: int, d: int, *, unsafe_large: bool = False) -> bool:
    """Does ext(10, n+d-3, d) equal pnw(n, d)?

    The underlying bijection pads a 0 before every 1 after the first;
    it needs n + d >= 3 so the extension length is an actual length.
    """
    if not 1 <= d <= n:
        raise ContractError(f"need 1 <= d <= n, got d={d}, n={n}")
    m = n + d - 3
    if m < 0:
        raise ContractError(f"extension length n+d-3 = {m} is negative for n={n}, d={d}")
    left = ext_count(BinaryWord.from_bits([1, 0]), m, d, unsafe_large=unsafe_large)
    right = count_pnw_density(n, d, unsafe_large=unsafe_large)
    return left == right


# ---------------------------------------------------------------------------
# Separating suffixes
# ---------------------------------------------------------------------------


class Separation(NamedTuple):
    """A suffix u such that exactly one of v u, w u is 1-prefix-normal;
    witness names the normal side ("v" or "w")."""

    suffix: BinaryWord
    witness: str


def separating_suffix(v: BinaryWord, w: BinaryWord) -> Separation:
    """Build and verify a suffix separating the extension languages of
    two distinct 1-prefix-normal words that start with 1."""
    if v == w:
        raise ContractError("separating_suffix requires distinct words")
    for name, word in (("v", v), ("w", w)):
        if len(word) == 0 or word.bit(1) != 1:
            raise ContractError(f"{name} must start with 1")
        if not is_prefix_normal(word, 1):
            raise ContractError(f"{name} must be 1-prefix-normal")

    a, b = (v, w) if len(v) <= len(w) else (w, v)
    x = a.packed ^ b.packed
    if x:
        # x's lowest set bit is the first difference, a padded with zeros:
        # pad past the longer word, then replay the word holding the 1 there.
        winner = a if a.packed & x & -x else b
        u = BinaryWord(0, len(b)) + winner
    else:
        # b = a 0^m. Either doubling a already separates, or the least
        # zero-padding k that makes a 0^k a normal does (shifted by one).
        # If a 0^k a is normal so is a 0^(k+1) a, so k is bisected: a
        # window of a 0^(k+1) a that crosses the gap, less one gap zero,
        # is a window of a 0^k a with the same ones, one symbol shorter,
        # and the prefix one symbol longer holds at least as many ones.
        # Windows that do not cross the gap hold because a is normal.
        if is_prefix_normal(a + a, 1):
            u = a + a
        else:
            k = 1 + bisect_left(
                range(1, len(a) + 1), True, key=lambda k: is_prefix_normal(a + BinaryWord(0, k) + a, 1)
            )
            if k > len(a):
                raise PnfkitError(
                    f"no zero padding up to {len(a)} makes {a}0^k{a} normal; "
                    "yet the construction guarantees one exists"
                )
            u = BinaryWord(0, k - 1) + a

    v_normal = is_prefix_normal(v + u, 1)
    w_normal = is_prefix_normal(w + u, 1)
    if v_normal == w_normal:
        raise PnfkitError(
            f"constructed suffix {u} fails to separate {v} and {w} "
            f"(v side {v_normal}, w side {w_normal}); the construction should make exactly one side normal"
        )
    return Separation(u, "v" if v_normal else "w")


# ---------------------------------------------------------------------------
# Bounds and ratio series
# ---------------------------------------------------------------------------


class BoundRow(NamedTuple):
    n: int
    pnw: int
    upper_bound: float
    upper_holds: bool
    lower_bound: float
    lower_holds: bool


def bound_check(max_n: int, *, unsafe_large: bool = False) -> list[BoundRow]:
    """Compare pnw(n), 1 <= n <= max_n, against the asymptotic bounds
    2^(n - lg n + 1) (above) and 2^(n - 4 sqrt(n lg n)) (below).

    Both bounds are "for n sufficiently large"; rows record where each
    holds, nothing more. The upper comparison is exact integer
    arithmetic (pnw(n) * n <= 2^(n+1)); the float columns are for
    reporting.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    return _bound_rows(census(max_n, unsafe_large=unsafe_large).pnw)


def _bound_rows(pnw: Sequence[int]) -> list[BoundRow]:
    """The bound_check rows for n = 1 .. len(pnw) - 1 of the counts pnw."""
    rows = []
    for n in range(1, len(pnw)):
        pnw_n = pnw[n]
        upper = 2.0 ** (n - math.log2(n) + 1)
        lower = 2.0 ** (n - 4 * math.sqrt(n * math.log2(n)))
        rows.append(
            BoundRow(
                n=n,
                pnw=pnw_n,
                upper_bound=upper,
                upper_holds=pnw_n * n <= 2 ** (n + 1),
                lower_bound=lower,
                lower_holds=pnw_n >= lower,
            )
        )
    return rows


def upper_bound_threshold(rows: list[BoundRow]) -> int | None:
    """Least n0 such that the upper bound holds from n0 through the end
    of the computed range (None when it fails at the last row)."""
    threshold = None
    for row in rows:
        if row.upper_holds:
            if threshold is None:
                threshold = row.n
        else:
            threshold = None
    return threshold


class RatioRow(NamedTuple):
    n: int
    growth_ratio: float
    ecrit_ratio: float
    ecrit_ratio_scaled: float


def ratio_series(max_n: int, *, unsafe_large: bool = False) -> list[RatioRow]:
    """Plot-data rows: pnw(n)/pnw(n-1), ecrit(n)/pnw(n) and the latter
    rescaled by n/ln n (NaN at n = 1 where ln n vanishes)."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    c = census(max_n, include_leaf_ecrit=True, unsafe_large=unsafe_large)
    rows = []
    for n in range(1, max_n + 1):
        ecrit_ratio = c.ecrit[n] / c.pnw[n]
        scaled = ecrit_ratio * n / math.log(n) if n > 1 else math.nan
        rows.append(RatioRow(n, c.pnw[n] / c.pnw[n - 1], ecrit_ratio, scaled))
    return rows
