"""Binary words with rank/select and maximum/minimum-ones profiles.

Words are immutable, bit-packed sequences over {0, 1}. Positions are
1-based in every public contract (position 0 means "empty prefix"); the
packed representation never leaks.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import accumulate
from operator import index
from typing import Iterator

from .errors import WordParseError, check_scale

# A profile costs at most r + n big-int tests, each a few operations on
# an int of at most r * log2(4n) bits, r = min(|w|_0, |w|_1): O(n^2 log n)
# bit operations in the worst case, done a machine word at a time (see
# _pnf1_bits). Anything past this length is refused rather than left to
# crawl.
PROFILE_LENGTH_GUARD = 100_000

# Byte tables mapping an ASCII '0'/'1' rendering to 0/1 indicators of
# symbol x, indexed by x.
_INDICATORS = (bytes.maketrans(b"01", b"\x01\x00"), bytes.maketrans(b"01", b"\x00\x01"))
_BIT_CHARS = ("0", "1")


def _bit_char(b: int) -> str:
    # index() admits ints (bools and numpy ints too), not floats or strings.
    try:
        i = index(b)
    except TypeError:
        i = -1
    if i not in (0, 1):
        raise ValueError(f"bit value {b!r} is not 0 or 1")
    return _BIT_CHARS[i]


class BinaryWord:
    """An immutable binary word w = w_1 ... w_n.

    Bits are packed into a single int: position i is stored at bit i-1.
    Instances hash and compare by value and are safe to share between
    threads; every operation returns a new word.
    """

    __slots__ = ("_bits", "_n")

    def __init__(self, bits: int, length: int):
        if length < 0:
            raise ValueError("length must be non-negative")
        if bits < 0 or bits >> length:
            raise ValueError("bit pattern does not fit the stated length")
        self._bits = bits
        self._n = length

    @classmethod
    def from_bits(cls, bits: "list[int] | tuple[int, ...]") -> "BinaryWord":
        text = "".join(map(_bit_char, bits))
        # Position 1 is the least significant bit.
        return cls(int(text[::-1] or "0", 2), len(text))

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryWord):
            return NotImplemented
        return self._n == other._n and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._n, self._bits))

    def __iter__(self) -> Iterator[int]:
        return iter(self.to01().encode("ascii").translate(_INDICATORS[1]))

    def __add__(self, other: "BinaryWord") -> "BinaryWord":
        if not isinstance(other, BinaryWord):
            return NotImplemented
        return BinaryWord(self._bits | (other._bits << self._n), self._n + other._n)

    def __str__(self) -> str:
        return self.to01()

    def __repr__(self) -> str:
        return f"BinaryWord({self.to01()!r})"

    def to01(self) -> str:
        """Render as an ASCII '0'/'1' string, position 1 first."""
        if self._n == 0:
            return ""
        return format(self._bits, "b").zfill(self._n)[::-1]

    def bit(self, i: int) -> int:
        """The symbol at position i, 1 <= i <= n.

        Each call shifts the whole packed int, O(n): scan a word through
        prefix_counts or to01, not bit by bit.
        """
        if not 1 <= i <= self._n:
            raise IndexError(f"position {i} out of range 1..{self._n}")
        return (self._bits >> (i - 1)) & 1

    @property
    def packed(self) -> int:
        """The raw bit-packed value (position i at bit i-1)."""
        return self._bits

    def count(self, x: int) -> int:
        """Number of occurrences of symbol x in the whole word."""
        _check_symbol(x)
        ones = self._bits.bit_count()
        return ones if x == 1 else self._n - ones

    def rank(self, x: int, i: int) -> int:
        """Occurrences of symbol x in the prefix of length i (0 <= i <= n)."""
        _check_symbol(x)
        if not 0 <= i <= self._n:
            raise IndexError(f"prefix length {i} out of range 0..{self._n}")
        ones = (self._bits & ((1 << i) - 1)).bit_count()
        return ones if x == 1 else i - ones

    def select(self, x: int, i: int) -> int:
        """Position of the i-th occurrence of symbol x (1-based count).

        Raises ValueError when the word has fewer than i occurrences.
        """
        _check_symbol(x)
        total = self.count(x)
        if not 1 <= i <= total:
            raise ValueError(f"word has only {total} occurrence(s) of {x}, cannot select #{i}")
        # rank(x, .) is non-decreasing: bisect for the first prefix reaching i.
        return bisect_left(range(1, self._n + 1), i, key=partial(self.rank, x)) + 1

    def complement(self) -> "BinaryWord":
        mask = (1 << self._n) - 1
        return BinaryWord(self._bits ^ mask, self._n)

    def reverse(self) -> "BinaryWord":
        # Read position 1 first as the most significant bit: it lands at position n.
        return BinaryWord(int(self.to01() or "0", 2), self._n)

    def prefix_counts(self, x: int = 1) -> list[int]:
        """P[i] = occurrences of x in the prefix of length i, for i = 0..n."""
        _check_symbol(x)
        indicators = self.to01().encode("ascii").translate(_INDICATORS[x])
        return list(accumulate(indicators, initial=0))


def _check_symbol(x: int) -> None:
    if x not in (0, 1):
        raise ValueError(f"symbol must be 0 or 1, got {x!r}")


def parse_word(text: str) -> BinaryWord:
    """Parse an ASCII '0'/'1' string into a word. Empty input is allowed.

    Rejects any other character with a WordParseError naming the 1-based
    position of the first offender.
    """
    rest = text.lstrip("01")
    if rest:
        raise WordParseError(len(text) - len(rest) + 1, rest[0])
    return BinaryWord(int(text[::-1] or "0", 2), len(text))


def _pnf1_bits(bits: int, n: int) -> int:
    """The packed PNF1 of the packed word bits of length n.

    Bit k - 1 of the result is set exactly when the maximum-ones profile
    steps up at k, i.e. when k is the shortest factor length holding one
    more 1 than any shorter factor.

    The scan is word-parallel over the positions of the rarer symbol,
    r = min(|w|_0, |w|_1). They go into W-bit fields of one int q,
    W = bitlen(2n + 2) + 1, so half = 2^(W-1) exceeds 2n + 2. Every
    test adds a shifted copy of q to a running int b whose fields sit
    in [0, 2 half), and reads the fields' top bits with one AND against
    high (half in every field): a field of the sum reaches half exactly
    when the span it holds passes the test. No sum or difference of two
    fields leaves [0, 2 half), so no carry or borrow crosses a field.

    The span sought for each t strictly increases in t, since a window
    for t + 1 strictly contains one for t. So one running bound, span,
    serves every t: it starts one past the last answer and rises by one
    per failed test, never past n. The scan narrows: after the shift by
    t * W the top t fields of s are empty and those of b can never pass
    (see each branch), so step t drops them from mask, ones and b, and
    its tests run on the (F - t) * W live bits, F the field count. A
    profile takes at most r + n tests of a few operations each: the sum
    of their live bits, at most (r + n) * F * W. Packing comes first: r
    steps, each rewriting the whole of q and of the unpacked bits, so
    O(r * (r * W + n)) bit operations.
    """
    w = (2 * n + 2).bit_length() + 1
    r = bits.bit_count()
    if 2 * r <= n:
        # Ones rarer: the shortest factor holding t + 1 ones is one
        # longer than g(t), the least distance between ones t apart. The
        # 1-based positions p_1 < ... < p_r go in p_1 first, so field j
        # holds n + p_(r-j), and field j of q - (q >> tW) is the distance
        # p_(r-j) - p_(r-j-t) for j < r - t and a vacated n + p > n
        # above. b holds half + span - q_j in field j, so field j of
        # b + (q >> tW) reaches half exactly when that distance is at
        # most span; vacated fields stay below half, as span < n.
        if r < 2:
            return r
        q = 0
        while bits:
            low = bits & -bits
            q = q << w | n + low.bit_length()
            bits ^= low
        mask = (1 << r * w) - 1
        ones = mask // ((1 << w) - 1)
        high = ones << (w - 1)
        b = high - q
        out = 1
        span, s = 0, q
        for _ in range(1, r):
            s >>= w
            mask >>= w
            ones >>= w
            b = (b & mask) + ones
            span += 1
            while not (b + s) & high:
                b += ones
                span += 1
            out |= 1 << span
        return out
    # Zeros rarer: the longest factor with at most j zeros is h(j + 1) - 1,
    # with h(s) the widest distance between edges s apart over the 1-based
    # zero positions padded with 0 and n + 1. The minimum-zeros profile
    # steps up just past it, and since max-ones(k) = k - min-zeros(k),
    # max-ones steps everywhere else: those lengths k, again distinct,
    # leave the all-ones mask. Each edge e goes in as n + 1 - e, from
    # n + 1 down to 0, so field j holds the j-th edge of the reversed
    # word (same profile) and the fields ascend. Of the m = |w|_0 + 2
    # fields, field j of (q >> sW) + high - q is half plus a distance
    # for j < m - s and half less an edge above. b holds
    # half - (span + 1) - q_j in field j, so field j of b + (q >> sW)
    # reaches half exactly when that distance exceeds span; vacated
    # fields stay in [0, half), as 2n + 2 < half.
    zeros = bits ^ ((1 << n) - 1)
    q = n + 1
    while zeros:
        low = zeros & -zeros
        q = q << w | n + 1 - low.bit_length()
        zeros ^= low
    q <<= w
    mask = (1 << (n - r + 2) * w) - 1
    ones = mask // ((1 << w) - 1)
    high = ones << (w - 1)
    b = high - q - ones
    skipped = span = 0
    s = q
    for _ in range(n - r):
        s >>= w
        mask >>= w
        ones >>= w
        b = (b & mask) - ones
        span += 1
        while (b + s) & high:
            b -= ones
            span += 1
        skipped |= 1 << span
    return (1 << n) - 1 - (skipped >> 1)


def _pnf1_checked(w: BinaryWord, *, unsafe_large: bool = False) -> int:
    # The profile guard's one home: every profile and every PNF1 test reads this.
    check_scale("profile length", len(w), PROFILE_LENGTH_GUARD, unsafe_large)
    return _pnf1_bits(w.packed, len(w))


def max_ones_profile(w: BinaryWord, *, unsafe_large: bool = False) -> tuple[int, ...]:
    """f[k], k = 0..n: the largest ones-count over all length-k factors of w."""
    return tuple(BinaryWord(_pnf1_checked(w, unsafe_large=unsafe_large), len(w)).prefix_counts(1))


def max_zeros_profile(w: BinaryWord, *, unsafe_large: bool = False) -> tuple[int, ...]:
    """f[k], k = 0..n: the largest zeros-count over all length-k factors of w,
    which is the largest ones-count over those of its complement."""
    return max_ones_profile(w.complement(), unsafe_large=unsafe_large)


def min_ones_profile(w: BinaryWord, *, unsafe_large: bool = False) -> tuple[int, ...]:
    """f[k], k = 0..n: the smallest ones-count over all length-k factors of w.

    Computed through the identity min_ones(k) = k - max_zeros(k).
    """
    fz = max_zeros_profile(w, unsafe_large=unsafe_large)
    return tuple(k - v for k, v in enumerate(fz))


class RankDirectory:
    """Ones-counts of every prefix of a word, so rank is one lookup.

    Built in one linear pass as the word's prefix_counts(1); it stores
    n + 1 counts beside the word.
    """

    __slots__ = ("word", "_ones")

    def __init__(self, word: BinaryWord):
        self.word = word
        self._ones = word.prefix_counts(1)

    def rank(self, x: int, i: int) -> int:
        """Occurrences of x in the prefix of length i, via the directory."""
        _check_symbol(x)
        n = len(self.word)
        if not 0 <= i <= n:
            raise IndexError(f"prefix length {i} out of range 0..{n}")
        ones = self._ones[i]
        return ones if x == 1 else i - ones
