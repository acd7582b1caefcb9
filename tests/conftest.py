import random
from itertools import accumulate

import pytest

from pnfkit import BinaryWord


def all_words(n):
    """Every word of length n, packed-int order."""
    for bits in range(1 << n):
        yield BinaryWord(bits, n)


def words_up_to(n):
    for length in range(n + 1):
        yield from all_words(length)


def random_word(rng: random.Random, n: int) -> BinaryWord:
    return BinaryWord(rng.getrandbits(n) if n else 0, n)


def window_scan_profile(w, x):
    """Maximum-x profile of w by the early-exit window scan.

    One pass per window length. Growing a window by one symbol adds at
    most one to its count, so each length only has to decide whether some
    window reaches the previous value plus one; the scan stops at the
    first witness. Quadratic in Python; an oracle for the profile kernel.
    """
    n = len(w)
    prefix = [0, *accumulate(int(w.bit(i) == x) for i in range(1, n + 1))]
    values = [0] * (n + 1)
    best = 0
    for k in range(1, n + 1):
        target = best + 1
        for i in range(n - k + 1):
            if prefix[i + k] - prefix[i] == target:
                best = target
                break
        values[k] = best
    return tuple(values)


def word_from_steps(values, symbol):
    """The word with `symbol` where the profile steps up, its opposite elsewhere."""
    return BinaryWord.from_bits(
        [symbol if b > a else 1 - symbol for a, b in zip(values, values[1:])]
    )


def factor_ones_counts(w, k):
    """Ones-counts of every length-k factor of w, by direct scan."""
    return [sum(w.bit(i) for i in range(s, s + k)) for s in range(1, len(w) - k + 2)]


@pytest.fixture
def rng():
    return random.Random(0x5EED)
