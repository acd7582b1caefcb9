"""Binary words with rank/select and maximum/minimum-ones profiles.

Words are immutable, bit-packed sequences over {0, 1}. Positions are
1-based in every public contract (position 0 means "empty prefix"); the
packed representation never leaks.
"""

from __future__ import annotations

from itertools import accumulate
from operator import index, sub
from typing import Iterator

from .errors import WordParseError, check_scale

# A profile costs O(r^2) C-level steps over the positions of the rarer
# symbol, r = min(|w|_0, |w|_1), so O(n^2) in the worst case. Anything
# past this length is refused rather than left to crawl.
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
        """The symbol at position i, 1 <= i <= n."""
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
        # rank(x, .) is non-decreasing; binary search the first prefix reaching i.
        lo, hi = 1, self._n
        while lo < hi:
            mid = (lo + hi) // 2
            if self.rank(x, mid) >= i:
                hi = mid
            else:
                lo = mid + 1
        return lo

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
    more 1 than any shorter factor. The work is O(r^2) C-level steps
    over the positions of the rarer symbol, r = min(|w|_0, |w|_1).
    """
    # The profile is invariant under reversal, so positions are read off
    # the most-significant-first rendering as they stand. The sentinel
    # bit makes the rendering exactly n characters, also for n = 0.
    text = format(bits | 1 << n, "b")[1:]
    if 2 * bits.bit_count() <= n:
        # Ones rarer: the shortest span holding t + 1 ones is one more
        # than the least distance between ones t apart in the position
        # list; the spans strictly increase, so the bits are distinct.
        ones = [i for i, c in enumerate(text) if c == "1"]
        return sum([1 << min(map(sub, ones[t:], ones)) for t in range(len(ones))])
    # Zeros rarer: the longest factor with at most j zeros spans j + 1
    # zero-gaps, E[i + j + 1] - E[i] - 1 over the zero positions E padded
    # with -1 and n. The minimum-zeros profile steps up just past it, and
    # since max-ones(k) = k - min-zeros(k), max-ones steps everywhere
    # else: those lengths k, again distinct, leave the all-ones mask.
    edges = [-1, *(i for i, c in enumerate(text) if c == "0"), n]
    skipped = sum([1 << max(map(sub, edges[j + 1 :], edges)) for j in range(len(edges) - 2)])
    return (1 << n) - 1 - (skipped >> 1)


def _max_profile(bits: int, n: int) -> tuple[int, ...]:
    return tuple(BinaryWord(_pnf1_bits(bits, n), n).prefix_counts(1))


def max_ones_profile(w: BinaryWord, *, unsafe_large: bool = False) -> tuple[int, ...]:
    """f[k], k = 0..n: the largest ones-count over all length-k factors of w."""
    check_scale("profile length", len(w), PROFILE_LENGTH_GUARD, unsafe_large)
    return _max_profile(w.packed, len(w))


def max_zeros_profile(w: BinaryWord, *, unsafe_large: bool = False) -> tuple[int, ...]:
    """f[k], k = 0..n: the largest zeros-count over all length-k factors of w."""
    check_scale("profile length", len(w), PROFILE_LENGTH_GUARD, unsafe_large)
    return _max_profile(w.complement().packed, len(w))


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
