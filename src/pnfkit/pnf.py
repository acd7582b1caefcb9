"""Prefix normal forms and Parikh sets.

Every word w has a unique 1-prefix-normal word with the same
maximum-ones function and a unique 0-prefix-normal word with the same
maximum-zeros function; together they determine the set of Parikh
vectors of the factors of w exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import NamedTuple

from .bitword import (
    BinaryWord,
    _check_symbol,
    max_ones_profile,
    max_zeros_profile,
    parse_word,
)
from .errors import ScaleError

# A word of length n has O(n^2) factor Parikh vectors; the guard bounds
# that output, not the work of finding it.
PARIKH_SET_LENGTH_GUARD = 24


class ParikhVector(NamedTuple):
    """Symbol counts of a word, in (zeros, ones) order."""

    zeros: int
    ones: int


@dataclass(frozen=True)
class PnfPair:
    """The two normal forms of a word."""

    pnf1: BinaryWord
    pnf0: BinaryWord


# Profile step (0 or 1) to the '0'/'1' symbol it stands for, indexed by
# the symbol a step emits.
_STEP_SYMBOLS = (bytes.maketrans(b"\x00\x01", b"10"), bytes.maketrans(b"\x00\x01", b"01"))


def _difference_word(profile: tuple[int, ...], increment_symbol: int) -> BinaryWord:
    # Profile steps are 0 or 1; emit increment_symbol on a step, its
    # opposite otherwise.
    steps = bytes(map(sub, profile[1:], profile))
    return parse_word(steps.translate(_STEP_SYMBOLS[increment_symbol]).decode("ascii"))


def pnf1(w: BinaryWord, *, unsafe_large: bool = False) -> BinaryWord:
    """The unique 1-prefix-normal word sharing w's maximum-ones function."""
    return _difference_word(max_ones_profile(w, unsafe_large=unsafe_large), 1)


def pnf0(w: BinaryWord, *, unsafe_large: bool = False) -> BinaryWord:
    """The unique 0-prefix-normal word sharing w's maximum-zeros function."""
    return _difference_word(max_zeros_profile(w, unsafe_large=unsafe_large), 0)


def pnf_pair(w: BinaryWord, *, unsafe_large: bool = False) -> PnfPair:
    return PnfPair(pnf1(w, unsafe_large=unsafe_large), pnf0(w, unsafe_large=unsafe_large))


def prefix_equivalent(v: BinaryWord, w: BinaryWord, x: int = 1) -> bool:
    """True iff v and w have identical maximum-x profiles.

    Words of different lengths are never equivalent (the profiles have
    different domains).
    """
    _check_symbol(x)
    if len(v) != len(w):
        return False
    profile = max_ones_profile if x == 1 else max_zeros_profile
    return profile(v) == profile(w)


def parikh_set(w: BinaryWord, *, unsafe_large: bool = False) -> frozenset[ParikhVector]:
    """The set of Parikh vectors of all factors of w.

    Read off the two normal forms: the ones-counts of the length-k
    factors are exactly the integers from PNF0's ones-prefix count at k
    up to PNF1's. Guarded: quadratically many vectors.
    """
    n = len(w)
    if n > PARIKH_SET_LENGTH_GUARD and not unsafe_large:
        raise ScaleError(
            f"parikh_set holds O(n^2) vectors; refusing length {n} > {PARIKH_SET_LENGTH_GUARD}"
        )
    pair = pnf_pair(w, unsafe_large=unsafe_large)
    fmax = pair.pnf1.prefix_counts(1)
    fmin = pair.pnf0.prefix_counts(1)
    return frozenset(
        ParikhVector(zeros=k - ones, ones=ones)
        for k in range(n + 1)
        for ones in range(fmin[k], fmax[k] + 1)
    )


def parikh_set_bruteforce(w: BinaryWord) -> frozenset[ParikhVector]:
    """Independent oracle: enumerate every factor directly."""
    n = len(w)
    vectors = {ParikhVector(0, 0)}
    for start in range(n):
        for end in range(start + 1, n + 1):
            ones = sum(w.bit(i) for i in range(start + 1, end + 1))
            vectors.add(ParikhVector(zeros=(end - start) - ones, ones=ones))
    return frozenset(vectors)


def parikh_set_equal(v: BinaryWord, w: BinaryWord) -> bool:
    """True iff v and w have the same Parikh set.

    Decided through the normal forms: the Parikh sets coincide exactly
    when both normal forms coincide. Works at any length the profile
    guard admits, unlike materializing the sets.
    """
    if len(v) != len(w):
        return False
    return pnf1(v) == pnf1(w) and pnf0(v) == pnf0(w)
