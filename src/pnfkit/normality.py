"""Prefix-normality deciders.

A word is 1-prefix-normal when no factor contains more 1s than the
prefix of the same length (0-prefix-normal: swap the roles of 1 and 0).
Five independent routes decide the property, registered in DECIDERS
under these keys; they must always agree:

  * def:      w equals its PNF1
  * subadd:   P(j) - P(i) <= P(j-i) for all 0 <= i <= j <= n
  * pos:      every factor with i ones has length >= pos(i)
  * possuper: pos(i) + pos(j) - 1 <= pos(i+j-1)
  * gaps:     windowed sums of the 1-gap decomposition dominate its
              prefix sums

The incremental append-one test lives here too; the enumeration walk
keeps its own packed form of it.
"""

from __future__ import annotations

from typing import NamedTuple

from .bitword import BinaryWord, _check_symbol, _pnf1_checked
from .errors import ContractError

# `pnfkit check` runs the four characterisations, O(n^2) Python loops,
# on at most this many symbols.
CHARACTERISATION_GUARD = 4096


def is_prefix_normal(w: BinaryWord, x: int = 1, *, unsafe_large: bool = False) -> bool:
    """True iff no factor of w has more x's than the prefix of equal length."""
    _check_symbol(x)
    if x == 0:
        w = w.complement()
    return _pnf1_checked(w, unsafe_large=unsafe_large) == w.packed


def check_subadditive_char(w: BinaryWord) -> bool:
    """Characterization via subadditivity of the ones prefix counts."""
    p = w.prefix_counts(1)
    n = len(w)
    for j in range(1, n + 1):
        pj = p[j]
        for i in range(j + 1):
            if pj - p[i] > p[j - i]:
                return False
    return True


def _one_positions(w: BinaryWord) -> list[int]:
    # pos[i] = position of the i-th 1 (1-based); pos[0] = 0 as a sentinel.
    pos = [0]
    for i, b in enumerate(w, start=1):
        if b:
            pos.append(i)
    return pos


def check_factor_pos_char(w: BinaryWord) -> bool:
    """Characterization via factor lengths: a factor with i ones is at
    least as long as the shortest prefix containing i ones."""
    p = w.prefix_counts(1)
    pos = _one_positions(w)
    n = len(w)
    for start in range(n):
        for end in range(start + 1, n + 1):
            ones = p[end] - p[start]
            if ones and end - start < pos[ones]:
                return False
    return True


def check_pos_superadditive_char(w: BinaryWord) -> bool:
    """Characterization via superadditivity of the positions of 1s."""
    pos = _one_positions(w)
    d = len(pos) - 1
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            if i + j - 1 <= d and pos[i] + pos[j] - 1 > pos[i + j - 1]:
                return False
    return True


class GapDecomposition(NamedTuple):
    """A 1-initial word written as 1 0^{r_1 - 1} 1 0^{r_2 - 1} ... 1 0^{r_d - 1}.

    d is the density (number of 1s) and the gaps r_1..r_d sum to the
    word length.
    """

    density: int
    gaps: tuple[int, ...]

    @classmethod
    def of(cls, w: BinaryWord) -> "GapDecomposition":
        if len(w) == 0 or w.bit(1) != 1:
            raise ContractError("gap decomposition is only defined for words starting with 1")
        pos = _one_positions(w)
        d = len(pos) - 1
        gaps = tuple(pos[i + 1] - pos[i] for i in range(1, d)) + (len(w) - pos[d] + 1,)
        return cls(d, gaps)

    def rebuild(self) -> BinaryWord:
        bits = []
        for r in self.gaps:
            bits.append(1)
            bits.extend([0] * (r - 1))
        return BinaryWord.from_bits(bits)


def check_gap_inequalities(w: BinaryWord) -> bool:
    """Characterization via the gap decomposition.

    Words starting with 0 are handled by the delegate rule: such a word
    is 1-prefix-normal exactly when it is all zeros.
    """
    if len(w) == 0:
        return True
    if w.bit(1) == 0:
        return w.count(1) == 0
    gaps = GapDecomposition.of(w).gaps
    d = len(gaps)
    # For each prefix-sum length t, every window of t gaps starting at
    # j >= 2 (and ending before r_d) must dominate the first t gaps.
    prefix = [0]
    for r in gaps:
        prefix.append(prefix[-1] + r)
    for t in range(1, d - 1):
        head = prefix[t]
        for j in range(2, d - t + 1):
            if head > prefix[j + t - 1] - prefix[j - 1]:
                return False
    return True


DECIDERS = {
    "def": is_prefix_normal,
    "subadd": check_subadditive_char,
    "pos": check_factor_pos_char,
    "possuper": check_pos_superadditive_char,
    "gaps": check_gap_inequalities,
}


def can_append_one(w: BinaryWord) -> bool:
    """For 1-prefix-normal w: is w1 still 1-prefix-normal?

    True iff for every 0 <= k < |w| the length-k suffix of w has
    strictly fewer 1s than the length-(k+1) prefix. Equality at any k
    means the appended 1 would create an overfull factor.
    """
    if __debug__ and not is_prefix_normal(w, 1):
        raise ContractError("can_append_one requires a 1-prefix-normal word")
    p = w.prefix_counts(1)
    n = len(w)
    total = p[n]
    for j in range(1, n + 1):
        if p[j] + p[n - j + 1] <= total:
            return False
    return True
