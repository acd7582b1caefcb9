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
tasks, when the density window leaves enough work to repay starting
the workers; totals are exact integers summed in task order, so
parallel and sequential runs are bit-identical.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add
from typing import Iterator, Sequence

from .bitword import BinaryWord, _check_symbol, _min_spans
from .errors import ContractError, PnfkitError, ScaleError
from .normality import is_prefix_normal

ENUM_LENGTH_GUARD = 30
CLASS_SCAN_GUARD = 20
CLASS_LISTING_GUARD = 8
GF_MAX_DENSITY = 6
GF_ORDER_GUARD = 200
DEFAULT_SPLIT_DEPTH = 12
_FORK_MIN_LEAVES = 1 << 17

THREADS_ENV_VAR = "PNFKIT_THREADS"


def _guard_length(n: int, unsafe_large: bool, guard: int = ENUM_LENGTH_GUARD) -> None:
    if n < 0:
        raise ValueError("length must be non-negative")
    if n > guard and not unsafe_large:
        raise ScaleError(f"exhaustive enumeration refused for length {n} > {guard}")


def resolve_threads(threads: int | None = None) -> int:
    """Worker count for counting walks: explicit value, else available
    cores capped by the PNFKIT_THREADS environment variable."""
    if threads is not None:
        return max(1, threads)
    count = os.cpu_count() or 1
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
    root_prefix: Sequence[int],
    n: int,
    lo: int,
    hi: int,
    leaf_ecrit: bool,
    tally: Tally,
    emit: bool,
) -> Iterator[int]:
    """Walk the subtree under a 1-prefix-normal root down to depth n.

    root_prefix is the ones-prefix-count array of the root word (entry 0
    is 0). Only nodes that can still reach a leaf with lo..hi ones are
    visited. tally is (nodes, ecrit, hist), three lists of length n + 1
    the walk adds to: visited nodes per depth, those among them that
    cannot take a 1, and the leaf density histogram. ecrit[n] is counted
    only with leaf_ecrit. With emit set the walk yields every leaf as a
    packed int, 1-child first, so in descending lexicographic order;
    otherwise it yields nothing.
    """
    nodes, ecrit, hist = tally
    m = len(root_prefix) - 1
    if m > n:
        raise ValueError("root longer than requested depth")
    t = root_prefix[m]
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
    slack = word = bits = 0
    for i in range(1, m + 1):
        b = root_prefix[i] - root_prefix[i - 1]
        word += b * unit[i - 1]
        bits |= b << i - 1
        slack = (slack << width) + word - b * ones[i] + zero_step + b
    if m == n:
        nodes[n] += 1
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
                nodes[n] += 1
                hist[t + 1] += 1
                if leaf_ecrit and (slack + word + unit[m] - one_step[n]) & tops[n] != tops[n]:
                    ecrit[n] += 1
                if emit:
                    yield bits | 1 << m
            if t >= lo:
                nodes[n] += 1
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


def _walk_counts(root_prefix: Sequence[int], n: int, lo: int, hi: int, leaf_ecrit: bool) -> Tally:
    """The tally of one counting walk (see _walk)."""
    tally = _new_tally(n)
    # A counting walk never yields: one next() runs it to the end.
    next(_walk(root_prefix, n, lo, hi, leaf_ecrit, tally, False), None)
    return tally


def _fan_out(n: int, lo: int, hi: int, leaf_ecrit: bool, threads: int | None) -> Tally:
    """The tally of the whole tree to depth n, forked into one task per
    node at DEFAULT_SPLIT_DEPTH when more than one worker is available
    and the window leaves enough work to repay starting them."""
    workers = resolve_threads(threads)
    split_depth = DEFAULT_SPLIT_DEPTH
    if workers <= 1 or n <= split_depth + 1:
        return _walk_counts((0,), n, lo, hi, leaf_ecrit)
    # The shallow walk keeps the roots that can still reach the window:
    # a root at split_depth may gain up to n - split_depth more ones.
    shallow = _new_tally(split_depth)
    depth = n - split_depth
    roots = list(_walk((0,), split_depth, max(0, lo - depth), hi, False, shallow, True))
    # Starting a pool costs tens of milliseconds, which a walk bounded by
    # fewer than _FORK_MIN_LEAVES leaves does not repay at two workers:
    # such a walk stays here. The leaves under a root with t ones are
    # bounded by the ways of placing lo - t .. hi - t more ones below it.
    reach = [
        sum(math.comb(depth, k) for k in range(max(0, lo - t), min(hi - t, depth) + 1))
        for t in range(split_depth + 1)
    ]
    if sum(reach[bits.bit_count()] for bits in roots) < _FORK_MIN_LEAVES:
        return _walk_counts((0,), n, lo, hi, leaf_ecrit)
    pad = [0] * (depth + 1)
    tally = (shallow[0][:split_depth] + pad, shallow[1][:split_depth] + pad, [0] * (n + 1))
    tasks = [(BinaryWord(bits, split_depth).prefix_counts(1), n, lo, hi, leaf_ecrit) for bits in roots]
    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for sub in pool.map(_walk_counts, *zip(*tasks), chunksize=chunk):
            tally = tuple(list(map(add, total, part)) for total, part in zip(tally, sub))
    return tally


@dataclass(frozen=True)
class Census:
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
    _guard_length(n, unsafe_large)
    nodes, ecrit, hist = _fan_out(n, 0, n, include_leaf_ecrit, threads)
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
    _guard_length(n, unsafe_large)
    # The 0-prefix-normal words are the complements of the 1-prefix-normal ones.
    flip = 0 if x == 1 else (1 << n) - 1
    for bits in _walk((0,), n, 0, n, False, _new_tally(n), True):
        yield BinaryWord(bits ^ flip, n)


def count_pnw(n: int, *, unsafe_large: bool = False) -> int:
    """pnw(n): the number of 1-prefix-normal words of length n."""
    return census(n, unsafe_large=unsafe_large).pnw[n]


def count_ecrit(n: int, *, unsafe_large: bool = False) -> int:
    """ecrit(n): 1-prefix-normal words of length n that cannot take a 1."""
    return census(n, include_leaf_ecrit=True, unsafe_large=unsafe_large).ecrit[n]


def count_pnw_density(
    n: int, d: int, *, threads: int | None = None, unsafe_large: bool = False
) -> int:
    """pnw(n, d): 1-prefix-normal words of length n with exactly d ones,
    forked across subtrees like census when threads > 1."""
    _guard_length(n, unsafe_large)
    if not 0 <= d <= n:
        raise ValueError(f"density {d} out of range 0..{n}")
    return _fan_out(n, d, d, False, threads)[2][d]


# ---------------------------------------------------------------------------
# Class statistics (prefix-equivalence classes of sigma^n)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceClass:
    representative: BinaryWord
    size: int
    members: tuple[BinaryWord, ...] | None = None


@dataclass(frozen=True)
class ClassStatistics:
    n: int
    class_count: int
    max_class_size: int
    classes: tuple[EquivalenceClass, ...]


def _pnf1_bits(word_bits: int, n: int) -> int:
    # pnf1 of a packed word, avoiding BinaryWord overhead in 2^n scans:
    # its 1s sit at the shortest spans holding 1, 2, ... ones.
    return sum([1 << (k - 1) for k in _min_spans(word_bits, n)])


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
    _guard_length(n, unsafe_large, guard=CLASS_SCAN_GUARD)
    if include_listing and n > CLASS_LISTING_GUARD and not unsafe_large:
        raise ScaleError(f"full class listing refused for length {n} > {CLASS_LISTING_GUARD}")
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


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _one_minus_xk(k: int) -> tuple[int, ...]:
    coeffs = [0] * (k + 1)
    coeffs[0] = 1
    coeffs[k] = -1
    return tuple(coeffs)


def _x_power(k: int) -> tuple[int, ...]:
    return tuple([0] * k + [1])


def _denominator(factors: list[int]) -> tuple[int, ...]:
    den: tuple[int, ...] = (1,)
    for k in factors:
        den = _poly_mul(den, _one_minus_xk(k))
    return den


# Rational forms of the fixed-density counting series, densities 0..6.
_GF_TABLE: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    0: ((1,), _denominator([1])),
    1: (_x_power(1), _denominator([1])),
    2: (_x_power(2), _denominator([1, 1])),
    3: (_x_power(3), _denominator([2, 1, 1])),
    4: (_x_power(4), _denominator([3, 1, 1, 1])),
    5: (_poly_mul(_x_power(5), (1, 1, 1)), _denominator([4, 2, 2, 1, 1])),
    6: (_poly_mul(_x_power(6), (1, 1, 1, 1)), _denominator([5, 3, 2, 1, 1, 1])),
}


def expand_gf(d: int, order: int) -> tuple[int, ...]:
    """Coefficients 0..order of the density-d counting series.

    Coefficient n is pnw(n, d). Closed forms are only known for d <= 6.
    Every denominator in _GF_TABLE has constant term 1, so the
    coefficients follow the linear recurrence den (*) expansion = num,
    solved in exact integers.
    """
    if not 0 <= d <= GF_MAX_DENSITY:
        raise ValueError(f"no closed generating function for density {d} (supported: 0..{GF_MAX_DENSITY})")
    if order < 0:
        raise ValueError(f"expansion order must be non-negative, got {order}")
    if order > GF_ORDER_GUARD:
        raise ScaleError(f"expansion order {order} out of range 0..{GF_ORDER_GUARD}")
    num, den = _GF_TABLE[d]
    coeffs: list[int] = []
    for k in range(order + 1):
        value = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            value -= den[i] * coeffs[k - i]
        coeffs.append(value)
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
    (restricted to total density d when given)."""
    if m < 0:
        raise ValueError("extension length must be non-negative")
    total_len = len(w) + m
    _guard_length(total_len, unsafe_large)
    if not is_prefix_normal(w, 1):
        raise ContractError("ext_count requires a 1-prefix-normal base word")
    prefix = w.prefix_counts(1)
    if d is None:
        return _walk_counts(prefix, total_len, 0, total_len, False)[0][total_len]
    if d < 0:
        raise ValueError("density must be non-negative")
    if d > total_len:
        return 0
    return _walk_counts(prefix, total_len, d, d, False)[2][d]


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
    _guard_length(m + 2, unsafe_large)
    left = ext_count(BinaryWord.from_bits([1, 0]), m, d, unsafe_large=unsafe_large)
    right = count_pnw_density(n, d, unsafe_large=unsafe_large)
    return left == right


# ---------------------------------------------------------------------------
# Separating suffixes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Separation:
    """A suffix u such that exactly one of v u, w u is 1-prefix-normal;
    witness names the normal side ("v" or "w")."""

    suffix: BinaryWord
    witness: str


def _zeros(n: int) -> BinaryWord:
    return BinaryWord(0, n)


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
    diff = next((i for i in range(1, len(a) + 1) if a.bit(i) != b.bit(i)), None)
    if diff is not None:
        # First difference inside the shorter word: pad past the longer
        # word, then replay whichever word holds the 1.
        winner = a if a.bit(diff) == 1 else b
        u = _zeros(len(b)) + winner
    elif any(b.bit(i) == 1 for i in range(len(a) + 1, len(b) + 1)):
        # a is a proper prefix and b gains a 1 later: b wins the same way.
        u = _zeros(len(b)) + b
    else:
        # b = a 0^m. Either doubling a already separates, or the least
        # zero-padding k that makes a 0^k a normal does (shifted by one).
        if is_prefix_normal(a + a, 1):
            u = a + a
        else:
            for k in range(1, len(a) + 1):
                if is_prefix_normal(a + _zeros(k) + a, 1):
                    u = _zeros(k - 1) + a
                    break
            else:
                raise PnfkitError(
                    f"no zero padding up to {len(a)} makes {a}0^k{a} normal; "
                    "yet the construction guarantees one exists"
                )

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


@dataclass(frozen=True)
class BoundRow:
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


@dataclass(frozen=True)
class RatioRow:
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
