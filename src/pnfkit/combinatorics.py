"""Enumeration of prefix normal words and the identities around it.

The word listing, and every count from its root down to the midpoint,
run one iterative depth-first walk, `_walk`, of the prefix-closed tree
of 1-prefix-normal words: appending 0 always stays in the language,
appending 1 is gated by the append-one test. So pnw(m+1) = 2 pnw(m) -
ecrit(m), where ecrit(m) counts the words that cannot take a 1: counts
count words only, and read ecrit off them. Below the midpoint a count
folds completion keys one level at a time instead of walking (`_counts`).

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

Folded leaf level. A node at depth n-1 yields its one or two leaf
children in place instead of pushing them.

Completions. For u of length k <= m, wu is 1-prefix-normal iff (a) the
first j symbols of u hold at most e_j ones and (b) every factor of u of
length L holds at most P(L) ones, where e_j is P(j) capped by
min over 1 <= i <= m-j of P(i+j) - P(m) + P(m-i). (a) covers the factors
that cross from w into u; a crossing factor longer than m reduces to
(b). So the subtree under w to depth m + k depends only on the key of
2k bytes (e_1..e_k, P(1..k)). Appending b gives a child the caps
min(e_{j+1} - b, P(j)) and drops the last P; appending 1 needs e_1 >= 1.
A count walks to depth m0 = max(m, ceil(n/2)), where k = n - m0 <= m0 as
the fact needs, then folds the keys there level by level down to the
leaves, in one process: nodes that share a key are counted together.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from itertools import accumulate
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .bitword import BinaryWord, _check_symbol
from .errors import ContractError, PnfkitError, check_scale
from .normality import is_prefix_normal

ENUM_LENGTH_GUARD = 30
CLASS_SCAN_GUARD = 20
CLASS_LISTING_GUARD = 8
GF_MAX_DENSITY = 6
GF_ORDER_GUARD = 200
COMPLETION_GUARD = 254

THREADS_ENV_VAR = "PNFKIT_THREADS"


def resolve_threads(threads: int | None = None) -> int:
    """A worker count: explicit value, else the CPUs this process may run
    on, capped by the PNFKIT_THREADS environment variable. Counts run in
    one process and do not read it; the benchmark harness does."""
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

# Each byte b -> b - 1; applied only to caps that are all at least 1.
_DECREMENT = bytes([0, *range(255)])


def _walk(root_bits: int, m: int, n: int, lo: int, hi: int, nodes: list[int]) -> Iterator[int]:
    """Yield every leaf at depth n with lo..hi ones under a 1-prefix-normal
    root, packed.

    The root is the word of length m <= n packed in root_bits (position
    i at bit i - 1). Only nodes that can still reach such a leaf are
    visited, each inner one adding one to nodes at its depth. Leaves come
    1-child first, so in descending lexicographic order.
    """
    t = root_bits.bit_count()
    if t > hi or t + n - m < lo:
        return
    if m == n:
        yield root_bits
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
    last = n - 1
    stack: list[tuple[int, int, int, int, bool, int]] = []
    ok = False  # True when the verdict is inherited
    while True:
        nodes[m] += 1
        if not ok:
            ok = slack & tops[m] == tops[m]
        slack <<= width
        if m == last:
            if ok and t < hi:
                yield bits | 1 << m
            if t >= lo:
                yield bits
        else:
            if t + last - m >= lo:
                stack.append((m + 1, t, slack + word + zero_step, word, ok and m > 0, bits))
            if ok and t < hi:
                word += unit[m]
                bits |= 1 << m
                m += 1
                t += 1
                slack += word - one_step[m]
                ok = False
                continue
        if not stack:
            return
        m, t, slack, word, ok, bits = stack.pop()


def _counts(root_bits: int, m: int, n: int, d: int | None = None) -> tuple[list[int], list[int]]:
    """(nodes, hist) of the subtree under a 1-prefix-normal root of length
    m <= n: nodes per depth and the leaf density histogram, in one process.
    Given d, only hist[d] is asked for: the count keeps to nodes that can
    still reach it, and no completion adds more than d ones.

    The tree is walked from the root to depth m0 (see the module
    docstring), then folded one level at a time: a level maps each key to
    its nodes there, counted in fields of width bits (which hold any count
    under the root) by the ones they added to the root's. Only the level
    being read and the one being built are held.
    """
    m0 = max(m, (n + 1) // 2)
    free = n - m0
    # A key holds counts up to free, one byte each.
    check_scale("completion length", free, COMPLETION_GUARD, False)
    nodes = [0] * (n + 1)
    lo, hi = (0, n) if d is None else (d, d)
    width = n - m + 1
    t0 = root_bits.bit_count()
    level: dict[bytes, int] = {}
    for bits in _walk(root_bits, m, m0, lo - free, hi, nodes):
        t = bits.bit_count()
        p = BinaryWord(bits, m0).prefix_counts(1)
        # A density count caps u's prefixes at the hi - t ones its leaves may add.
        caps = bytes(
            min(min(map(add, p[j + 1 : m0 + 1], p[m0 - 1 : j - 1 : -1]), default=t + p[j]) - t, hi - t)
            for j in range(1, free + 1)
        )
        key = caps + bytes(p[1 : free + 1])
        level[key] = level.get(key, 0) + (1 << (t - t0) * width)
    mask = (1 << width) - 1
    for k in range(free, -1, -1):
        # level holds the nodes at depth n - k, whose keys are 2k bytes.
        total = sum(level.values())
        added = [total >> a * width & mask for a in range(width)]
        nodes[n - k] = sum(added)
        if not k:
            break
        below: dict[bytes, int] = {}
        for key, counts in level.items():
            caps, p = key[1:k], key[k:-1]
            child = bytes(map(min, caps, p)) + p
            below[child] = below.get(child, 0) + counts
            if key[0]:
                child = bytes(map(min, caps.translate(_DECREMENT), p)) + p
                below[child] = below.get(child, 0) + (counts << width)
        # Nodes with fewer than lo - t0 - (k - 1) ones added cannot reach lo.
        cut = max(0, lo - t0 - k + 1) * width
        level = {key: c for key, counts in below.items() if (c := counts >> cut << cut)} if cut else below
    # The last level's one key is b"", and its nodes are the leaves.
    return nodes, [0] * t0 + added + [0] * (m - t0)


class Census(NamedTuple):
    """Per-length counts of the tree of 1-prefix-normal words to depth n.

    pnw[m] counts the 1-prefix-normal words of length m; ecrit[m] counts
    those whose 1-extension leaves the language. ecrit[n] needs a count at
    n + 1, so it is 0: count_ecrit(n) gives it. by_density[d] counts those
    of length n with d ones.
    """

    n: int
    pnw: tuple[int, ...]
    ecrit: tuple[int, ...]
    by_density: tuple[int, ...]


def census(n: int, *, threads: int | None = None, unsafe_large: bool = False) -> Census:
    """Count 1-prefix-normal words (and critical words) for every length
    up to n, in one process; threads is accepted and changes nothing. Every
    0-extension of a prefix normal word is prefix normal, so a word that can
    take a 1 has two children and any other one: ecrit[m] = 2 pnw[m] - pnw[m + 1]."""
    check_scale("enumeration length", n, ENUM_LENGTH_GUARD, unsafe_large)
    pnw, hist = _counts(0, 0, n)
    ecrit = [2 * a - b for a, b in zip(pnw, pnw[1:])]
    return Census(n, tuple(pnw), (*ecrit, 0), tuple(hist))


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
    for bits in _walk(0, 0, n, 0, n, [0] * (n + 1)):
        yield BinaryWord(bits ^ flip, n)


def count_pnw(n: int, *, unsafe_large: bool = False) -> int:
    """pnw(n): the number of 1-prefix-normal words of length n."""
    return census(n, unsafe_large=unsafe_large).pnw[n]


def count_ecrit(n: int, *, unsafe_large: bool = False) -> int:
    """ecrit(n) = 2 pnw(n) - pnw(n + 1): words of length n that cannot take a 1."""
    check_scale("enumeration length", n, ENUM_LENGTH_GUARD, unsafe_large)
    pnw = _counts(0, 0, n + 1)[0]
    return 2 * pnw[n] - pnw[n + 1]


def count_pnw_density(n: int, d: int, *, unsafe_large: bool = False) -> int:
    """pnw(n, d): 1-prefix-normal words of length n with exactly d ones."""
    check_scale("enumeration length", n, ENUM_LENGTH_GUARD, unsafe_large)
    if not 0 <= d <= n:
        raise ValueError(f"density {d} out of range 0..{n}")
    return _counts(0, 0, n, d)[1][d]


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

    Words share their pnf1 iff they share their maximum-ones profile F,
    the class key. One depth-first walk of all 2^n words, 1-child first
    with the leaf level folded as in `_walk`, carries per node the ones
    of each suffix, S, and F, in W-bit fields (W = bitlen(n) + 1, field
    k - 1 for length k). Appending 0 shifts S and sets F's new field to
    the word's ones. Appending 1 also adds one to every field of S, and F
    rises by one in each field where S exceeds it, read from the guard
    bits of one add and subtract. A node costs a few operations on n·W-bit
    ints: O(2^n · n log n) bit operations in all.

    Leaves come in descending lexicographic order, and a class's pnf1 is
    its largest member, since its ones-prefix counts dominate every
    member's. So the first leaf of each key is the representative, and
    classes and member lists come out descending, as enumerate_pn(n, 1).
    """
    check_scale("class scan length", n, CLASS_SCAN_GUARD, unsafe_large)
    if include_listing:
        check_scale("class listing length", n, CLASS_LISTING_GUARD, unsafe_large)
    width = n.bit_length() + 1
    ones = list(accumulate((1 << width * i for i in range(n)), initial=0))
    high = ones[n] << width - 1
    low = high - ones[n]
    # The empty word is the one leaf with no parent to fold it.
    stack = [(0, 0, 0, 0, 0)] if n else []
    sizes, reps, members = ({}, [], {}) if n else ({0: 1}, [0], {0: [0]})
    while stack:
        m, bits, s, f, t = stack.pop()
        while m < n - 1:
            f |= t << width * m
            s <<= width
            stack.append((m + 1, bits, s, f, t))
            bits |= 1 << m
            m += 1
            t += 1
            s += ones[m]
            f += (s + low - f & high) >> width - 1
        f |= t << width * m
        s = (s << width) + ones[n]
        for key, leaf in ((f + ((s + low - f & high) >> width - 1), bits | 1 << m), (f, bits)):
            size = sizes.get(key, 0)
            if not size:
                reps.append(leaf)
            sizes[key] = size + 1
            if include_listing:
                members.setdefault(key, []).append(leaf)
    classes = tuple(
        EquivalenceClass(BinaryWord(rep, n), size, tuple(BinaryWord(b, n) for b in members[key]) if include_listing else None)
        for rep, (key, size) in zip(reps, sizes.items())
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
    (restricted to total density d when given)."""
    if m < 0:
        raise ValueError("extension length must be non-negative")
    total_len = len(w) + m
    check_scale("enumeration length", total_len, ENUM_LENGTH_GUARD, unsafe_large)
    if not is_prefix_normal(w, 1, unsafe_large=unsafe_large):
        raise ContractError("ext_count requires a 1-prefix-normal base word")
    if d is not None and d < 0:
        raise ValueError("density must be non-negative")
    hist = _counts(w.packed, len(w), total_len, d)[1]
    if d is None:
        return sum(hist)
    return hist[d] if d <= total_len else 0


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
    rescaled by n/ln n (NaN at n = 1 where ln n vanishes). One count to
    depth max_n + 1 gives every ecrit(n) = 2 pnw(n) - pnw(n + 1)."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    check_scale("enumeration length", max_n, ENUM_LENGTH_GUARD, unsafe_large)
    pnw = _counts(0, 0, max_n + 1)[0]
    rows = []
    for n in range(1, max_n + 1):
        ecrit_ratio = (2 * pnw[n] - pnw[n + 1]) / pnw[n]
        scaled = ecrit_ratio * n / math.log(n) if n > 1 else math.nan
        rows.append(RatioRow(n, pnw[n] / pnw[n - 1], ecrit_ratio, scaled))
    return rows
