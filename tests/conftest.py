import random
from itertools import accumulate

import pytest

from pnfkit import BinaryWord, pnf1
from pnfkit.combinatorics import ClassStatistics, EquivalenceClass


def all_words(n):
    """Every word of length n, packed-int order."""
    for bits in range(1 << n):
        yield BinaryWord(bits, n)


def words_up_to(n):
    for length in range(n + 1):
        yield from all_words(length)


def random_word(rng: random.Random, n: int) -> BinaryWord:
    return BinaryWord(rng.getrandbits(n) if n else 0, n)


def bits_oracle(w):
    """The symbols of w, position 1 first, one shift per symbol."""
    return [(w.packed >> i) & 1 for i in range(len(w))]


def pack_oracle(bits):
    """Pack symbols, position 1 first, one OR per symbol."""
    packed = 0
    for i, b in enumerate(bits):
        packed |= b << i
    return BinaryWord(packed, len(bits))


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


def walk_counts_oracle(root_prefix, n, leaf_ecrit, with_hist):
    """Per-depth nodes, ecrit and (optionally) the leaf density histogram
    of the subtree under a 1-prefix-normal root, by the plain walk that
    runs the full append-one loop at every node."""
    p = list(root_prefix)
    m = len(p) - 1
    nodes = [0] * (n + 1)
    ecrit = [0] * (n + 1)
    hist = [0] * (n + 1) if with_hist else None
    pending = []
    while True:
        nodes[m] += 1
        ok = False
        if m < n or leaf_ecrit:
            total = p[m]
            ok = True
            for j in range(1, (m + 1) // 2 + 1):
                if p[j] + p[m + 1 - j] <= total:
                    ok = False
                    break
            if not ok:
                ecrit[m] += 1
        if m < n:
            p.append(p[m] + 1 if ok else p[m])
            pending.append(ok)
            m += 1
            continue
        if hist is not None:
            hist[p[m]] += 1
        while True:
            if not pending:
                return nodes, ecrit, hist
            if pending[-1]:
                pending[-1] = False
                p[m] = p[m - 1]
                break
            pending.pop()
            p.pop()
            m -= 1


def count_density_oracle(root_prefix, n, d):
    """Leaves at depth n with exactly d ones under a 1-prefix-normal
    root, by a walk that prunes on density and tests every 1-child."""
    p = list(root_prefix)
    m = len(p) - 1
    if p[m] > d or p[m] + (n - m) < d:
        return 0
    count = 0
    pending = []
    while True:
        if m == n:
            if p[m] == d:
                count += 1
        else:
            total = p[m]
            can_one = total < d and all(
                p[j] + p[m + 1 - j] > total for j in range(1, (m + 1) // 2 + 1)
            )
            can_zero = total + (n - m - 1) >= d
            if can_one:
                p.append(total + 1)
                pending.append(can_zero)
                m += 1
                continue
            if can_zero:
                p.append(total)
                pending.append(False)
                m += 1
                continue
        while True:
            if not pending:
                return count
            if pending[-1]:
                pending[-1] = False
                p[m] = p[m - 1]
                break
            pending.pop()
            p.pop()
            m -= 1


def enumerate_pn_oracle(n, x=1):
    """Every x-prefix-normal word of length n, x-branch first, by recursion."""
    p = [0]
    bits = []
    gated, free = (1, 0) if x == 1 else (0, 1)

    def rec(m):
        if m == n:
            yield BinaryWord.from_bits(bits)
            return
        total = p[m]
        if all(p[j] + p[m + 1 - j] > total for j in range(1, (m + 1) // 2 + 1)):
            bits.append(gated)
            p.append(total + 1)
            yield from rec(m + 1)
            bits.pop()
            p.pop()
        bits.append(free)
        p.append(total)
        yield from rec(m + 1)
        bits.pop()
        p.pop()

    yield from rec(0)


def class_statistics_oracle(n):
    """Prefix-equivalence classes of all words of length n with their
    members: grouped by pnf1, keys and members sorted descending by the
    tuple of symbols."""
    groups = {}
    for bits in range(1 << n):
        groups.setdefault(pnf1(BinaryWord(bits, n)).packed, []).append(bits)

    def lex_key(bits):
        return tuple((bits >> i) & 1 for i in range(n))

    classes = tuple(
        EquivalenceClass(
            BinaryWord(key, n),
            len(groups[key]),
            tuple(BinaryWord(b, n) for b in sorted(groups[key], key=lex_key, reverse=True)),
        )
        for key in sorted(groups, key=lex_key, reverse=True)
    )
    return ClassStatistics(n, len(classes), max(c.size for c in classes), classes)


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
