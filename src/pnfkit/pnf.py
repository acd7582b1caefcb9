"""Prefix normal forms and Parikh sets.

Every word w has a unique 1-prefix-normal word with the same
maximum-ones function and a unique 0-prefix-normal word with the same
maximum-zeros function; together they determine the set of Parikh
vectors of the factors of w exactly.
"""

from __future__ import annotations

from operator import sub
from typing import NamedTuple

from .bitword import (
    BinaryWord,
    _check_symbol,
    _pnf1_checked,
    max_ones_profile,
    max_zeros_profile,
    min_ones_profile,
    parse_word,
)
from .errors import check_scale

# A word of length n has O(n^2) factor Parikh vectors; the guard bounds
# that output, not the work of finding it.
PARIKH_SET_LENGTH_GUARD = 24


class ParikhVector(NamedTuple):
    """Symbol counts of a word, in (zeros, ones) order."""

    zeros: int
    ones: int


class PnfPair(NamedTuple):
    """The two normal forms of a word."""

    pnf1: BinaryWord
    pnf0: BinaryWord


# Profile step (0 or 1) to the '0'/'1' symbol it stands for: 1 on a step.
_STEP_SYMBOLS = bytes.maketrans(b"\x00\x01", b"01")


def _difference_word(profile: tuple[int, ...]) -> BinaryWord:
    steps = bytes(map(sub, profile[1:], profile))
    return parse_word(steps.translate(_STEP_SYMBOLS).decode("ascii"))


def pnf1(w: BinaryWord, *, unsafe_large: bool = False) -> BinaryWord:
    """The unique 1-prefix-normal word sharing w's maximum-ones function."""
    return _difference_word(max_ones_profile(w, unsafe_large=unsafe_large))


def pnf0(w: BinaryWord, *, unsafe_large: bool = False) -> BinaryWord:
    """The unique 0-prefix-normal word sharing w's maximum-zeros function:
    the complement of the 1-form that the maximum-zeros profile spells."""
    return _difference_word(max_zeros_profile(w, unsafe_large=unsafe_large)).complement()


def pnf_pair(w: BinaryWord, *, unsafe_large: bool = False) -> PnfPair:
    return PnfPair(pnf1(w, unsafe_large=unsafe_large), pnf0(w, unsafe_large=unsafe_large))


def prefix_equivalent(v: BinaryWord, w: BinaryWord, x: int = 1, *, unsafe_large: bool = False) -> bool:
    """True iff v and w have identical maximum-x profiles.

    Words of different lengths are never equivalent (the profiles have
    different domains).
    """
    _check_symbol(x)
    if len(v) != len(w):
        return False
    if x == 0:
        v, w = v.complement(), w.complement()
    return _pnf1_checked(v, unsafe_large=unsafe_large) == _pnf1_checked(w, unsafe_large=unsafe_large)


def parikh_set(w: BinaryWord, *, unsafe_large: bool = False) -> frozenset[ParikhVector]:
    """The set of Parikh vectors of all factors of w.

    The ones-counts of the length-k factors are exactly the integers
    from the minimum-ones profile at k up to the maximum-ones profile,
    which are the ones-prefix counts of PNF0 and PNF1. Guarded:
    quadratically many vectors.
    """
    n = len(w)
    check_scale("Parikh set length", n, PARIKH_SET_LENGTH_GUARD, unsafe_large)
    fmax = max_ones_profile(w, unsafe_large=unsafe_large)
    fmin = min_ones_profile(w, unsafe_large=unsafe_large)
    return frozenset(
        ParikhVector(zeros=k - ones, ones=ones)
        for k in range(n + 1)
        for ones in range(fmin[k], fmax[k] + 1)
    )


def parikh_set_bruteforce(w: BinaryWord) -> frozenset[ParikhVector]:
    """Independent oracle: every factor w[i+1..j], counted off w's own
    prefix counts."""
    p = w.prefix_counts(1)
    n = len(w)
    return frozenset(
        ParikhVector(zeros=j - i - (p[j] - p[i]), ones=p[j] - p[i])
        for i in range(n + 1)
        for j in range(i, n + 1)
    )


def parikh_set_equal(v: BinaryWord, w: BinaryWord, *, unsafe_large: bool = False) -> bool:
    """True iff v and w have the same Parikh set.

    Decided through the normal forms: the Parikh sets coincide exactly
    when both normal forms coincide. Works at any length the profile
    guard admits, or unsafe_large lifts, unlike materializing the sets.
    """
    return all(prefix_equivalent(v, w, x, unsafe_large=unsafe_large) for x in (1, 0))
