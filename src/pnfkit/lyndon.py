"""Lyndon words, necklaces and pre-necklaces, under the order 0 < 1.

0-prefix-normal words sit strictly inside the pre-necklaces; the
operations here provide the lexicographic side of that comparison.
"""

from __future__ import annotations

from .bitword import BinaryWord
from .errors import ContractError, check_scale
from .normality import is_prefix_normal

# Pre-necklace counts are sums of Lyndon-word counts, O(n log n)
# big-int steps; the divisor sums held at once take about n^2/25 bytes.
# The guard bounds that memory: 22 MB peak RSS (17 MB after import) at
# n = 10 000 in 0.04 s, where n = 100 000 would need about 400 MB.
PRENECKLACE_COUNT_GUARD = 10_000


def _lyndon_prefix(w: BinaryWord) -> int:
    """Length p of the longest Lyndon prefix of a non-empty pre-necklace w,
    0 when w is not a pre-necklace, 1 for the empty word.

    Linear scan (Cattell et al., J. Algorithms 2000): p is the period of
    the prefix read so far; a symbol below its p-shifted counterpart
    disproves membership, one above restarts the period at the full prefix.
    """
    p = 1
    bits = list(w)
    for i in range(1, len(bits)):
        prev = bits[i - p]
        if bits[i] < prev:
            return 0
        if bits[i] > prev:
            p = i + 1
    return p


def is_lyndon(w: BinaryWord) -> bool:
    """True iff w is non-empty and strictly smaller than each of its proper
    suffixes, that is, w is its own longest Lyndon prefix."""
    return len(w) > 0 and _lyndon_prefix(w) == len(w)


def is_prenecklace(w: BinaryWord) -> bool:
    """True iff w is a prefix of a power of some Lyndon word (or empty)."""
    return _lyndon_prefix(w) > 0


def is_prenecklace_bruteforce(w: BinaryWord) -> bool:
    """Definition-shaped oracle: some Lyndon prefix of w repeats into w."""
    n = len(w)
    if n == 0:
        return True
    s = w.to01()
    for p in range(1, n + 1):
        root = s[:p]
        if s == (root * n)[:n] and all(root < root[i:] for i in range(1, p)):
            return True
    return False


def lyndon_extension_check(w: BinaryWord) -> bool:
    """For 0-prefix-normal w containing a 0: is w 1^{|w|} a Lyndon word?

    Always true under the precondition; callers use this as an
    executable restatement of that fact.
    """
    if not is_prefix_normal(w, 0):
        raise ContractError("lyndon_extension_check requires a 0-prefix-normal word")
    if w.count(0) == 0:
        raise ContractError("lyndon_extension_check requires at least one 0")
    ones = BinaryWord((1 << len(w)) - 1, len(w))
    return is_lyndon(w + ones)


def count_prenecklaces(n: int, *, unsafe_large: bool = False) -> int:
    """Number of pre-necklaces of length n over {0, 1}."""
    check_scale("pre-necklace count length", n, PRENECKLACE_COUNT_GUARD, unsafe_large)
    if n == 0:
        return 1
    # Cutting u u u ... to n symbols maps the Lyndon words u of length at
    # most n one-to-one onto the pre-necklaces of length n (u is the
    # longest Lyndon prefix of the image). So the count is the sum of the
    # Lyndon-word counts L(i), i = 1..n, from 2^i = sum of d * L(d), d | i.
    total = 0
    divisor_terms = [0] * (n + 1)  # sum of d * L(d) over proper divisors d
    for i in range(1, n + 1):
        lyndon = ((1 << i) - divisor_terms[i]) // i
        total += lyndon
        for multiple in range(2 * i, n + 1, i):
            divisor_terms[multiple] += i * lyndon
    return total
