"""Binary words with rank/select and maximum/minimum-ones profiles.

Words are immutable, bit-packed sequences over {0, 1}. Positions are
1-based in every public contract (position 0 means "empty prefix"); the
packed representation never leaks.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import accumulate, compress
from operator import index
from typing import Iterator

from .errors import WordParseError, check_scale

# A profile costs at most r + n tests, r = min(|w|_0, |w|_1), each two
# big-int operations on an int of at most r * log2(8n) bits: O(n^2 log n)
# bit operations in the worst case, done a machine word at a time (see
# _pnf1_bits). Packing the positions first is O(r log n). Anything past
# this length is refused rather than left to crawl.
PROFILE_LENGTH_GUARD = 100_000

# The profile scan drops the fields its shift has vacated once per this
# many steps, not at every step.
_NARROW_STEPS = 32

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
    W = bitlen(2n + 2) + 1, so half = 2^(W-1) exceeds 2n + 2. The test
    for step t reads a running int c, whose field j is half plus or
    minus span against the distance between fields j and j + t of q,
    with one AND against high (half in every field): a field of c
    reaches half exactly when the span it holds passes the test. Every
    field of c stays in [0, 2 half), so no carry or borrow crosses a
    field, and a field vacated by the shift stays below half.

    The span sought for each t strictly increases in t, since a window
    for t + 1 strictly contains one for t. So one running bound, span,
    serves every t: it starts one past the last answer and rises by one
    per failed test, never past n. A failed test costs two big-int
    operations, the AND and one add of ones (1 in every field). Moving
    from t to t + 1 costs two more: c takes one add of a precomputed
    difference int, which then shifts down one field. Every
    _NARROW_STEPS steps, c, ones and high drop their vacated fields, so
    a test runs on at most (F - t + _NARROW_STEPS) * W bits, F the field
    count. A profile takes at most r + n tests: O((r + n) * r * W) bit
    operations, done a machine word at a time. The positions are packed
    by one join of their W-bit renderings and one int(), O(r * W).
    """
    w = (2 * n + 2).bit_length() + 1
    r = bits.bit_count()
    field = f"0{w}b"
    text = format(bits, "b").zfill(n)[::-1].encode("ascii")
    if 2 * r <= n:
        # Ones rarer: the shortest factor holding t + 1 ones is one
        # longer than g(t), the least distance between ones t apart. The
        # 1-based positions p_1 < ... < p_r go in p_1 first, so field j
        # holds n + p_(r-j) and the fields descend. c holds
        # half + span - (q_j - q_(j+t)) in field j, which reaches half
        # exactly when that distance is at most span. From t to t + 1,
        # field j loses q_(j+t) - q_(j+t+1) - 1, field j + t of
        # g = q - (q >> W) - ones. A vacated field holds half + span less
        # an n + p > n, so stays below half, as span < n.
        if r < 2:
            return r
        at = compress(range(n + 1, 2 * n + 1), text.translate(_INDICATORS[1]))
        q = int("".join(format(v, field) for v in at), 2)
        ones = ((1 << r * w) - 1) // ((1 << w) - 1)
        high = ones << (w - 1)
        g = q - (q >> w) - ones
        c = high
        out = 1
        span = 0
        for t in range(1, r):
            c -= g
            g >>= w
            span += 1
            while not c & high:
                c += ones
                span += 1
            out |= 1 << span
            if not t % _NARROW_STEPS:
                mask = (1 << (r - t) * w) - 1
                c &= mask
                ones &= mask
                high &= mask
        return out
    # Zeros rarer: the longest factor with at most j zeros is h(j + 1) - 1,
    # with h(s) the widest distance between edges s apart over the 1-based
    # zero positions padded with 0 and n + 1. The minimum-zeros profile
    # steps up just past it, and since max-ones(k) = k - min-zeros(k),
    # max-ones steps everywhere else: those lengths k, again distinct,
    # leave the all-ones mask. Each edge e goes in as n + 1 - e, from
    # n + 1 down to 0, so field j holds the j-th edge of the reversed
    # word (same profile) and the fields ascend. c holds
    # half + (q_(j+t) - q_j) - (span + 1) in field j, which reaches half
    # exactly when that distance exceeds span. From t to t + 1, field j
    # gains q_(j+t+1) - q_(j+t) - 1, field j + t of p = (q >> W) - q - ones.
    # The top field of p is -(n + 2) and every other one is >= 0, so p
    # still shifts fieldwise under the floor shift. A vacated field holds
    # half - 1 less an edge and at most span, so stays in [0, half), as
    # 2n + 2 < half.
    at = compress(range(n, 0, -1), text.translate(_INDICATORS[0]))
    q = int(format(n + 1, field) + "".join(format(v, field) for v in at) + format(0, field), 2)
    fields = n - r + 2
    ones = ((1 << fields * w) - 1) // ((1 << w) - 1)
    high = ones << (w - 1)
    p = (q >> w) - q - ones
    c = high - ones
    skipped = span = 0
    for t in range(1, n - r + 1):
        c += p
        p >>= w
        span += 1
        while c & high:
            c -= ones
            span += 1
        skipped |= 1 << span
        if not t % _NARROW_STEPS:
            mask = (1 << (fields - t) * w) - 1
            c &= mask
            ones &= mask
            high &= mask
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
