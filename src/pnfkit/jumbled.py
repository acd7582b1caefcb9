"""Linear-size index for indexed binary jumbled pattern matching.

A query asks whether any factor of the indexed word has a given number
of ones and zeros. Storing, per factor length k, the maximum and
minimum ones-counts answers that in constant time; the two normal forms
encode the same arrays, and rank queries over them give the second,
equivalent query path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO

from .bitword import MAX_ONES, MIN_ONES, BinaryWord, OnesProfile, RankDirectory
from .errors import IndexFormatError
from .pnf import PnfPair, pnf_pair

MAGIC = b"PNFIX1"


@dataclass(frozen=True)
class JumbledIndex:
    """Immutable query structure for one word; share freely across threads."""

    n: int
    fmax: OnesProfile
    fmin: OnesProfile
    pnf_pair: PnfPair
    rank1_dir: RankDirectory
    rank0_dir: RankDirectory

    def query(self, *, ones: int, zeros: int) -> bool:
        """Does some factor contain exactly this many ones and zeros?

        Answered from the stored profiles. Totals longer than the word
        answer False: no factor is that long.
        """
        _check_counts(ones, zeros)
        k = ones + zeros
        if k > self.n:
            return False
        return self.fmin[k] <= ones <= self.fmax[k]

    def query_via_rank(self, *, ones: int, zeros: int) -> bool:
        """Same contract as query, answered by two rank lookups on the
        normal forms."""
        _check_counts(ones, zeros)
        k = ones + zeros
        if k > self.n:
            return False
        return self.rank0_dir.rank(1, k) <= ones <= self.rank1_dir.rank(1, k)


def _check_counts(ones: int, zeros: int) -> None:
    if ones < 0 or zeros < 0:
        raise ValueError("ones and zeros must be non-negative")


def build_index(w: BinaryWord, *, unsafe_large: bool = False) -> JumbledIndex:
    """Build the index: profiles, normal forms and rank directories.

    The profiles are read off the forms (fmax = prefix counts of PNF1,
    fmin = prefix counts of PNF0), so each symbol costs one kernel pass.
    """
    pair = pnf_pair(w, unsafe_large=unsafe_large)
    return JumbledIndex(
        n=len(w),
        fmax=OnesProfile(MAX_ONES, tuple(pair.pnf1.prefix_counts(1))),
        fmin=OnesProfile(MIN_ONES, tuple(pair.pnf0.prefix_counts(1))),
        pnf_pair=pair,
        rank1_dir=RankDirectory(pair.pnf1),
        rank0_dir=RankDirectory(pair.pnf0),
    )


def query_bruteforce(w: BinaryWord, *, ones: int, zeros: int) -> bool:
    """Oracle: scan all factors for the requested composition."""
    _check_counts(ones, zeros)
    k = ones + zeros
    n = len(w)
    if k > n:
        return False
    window = sum(w.bit(i) for i in range(1, k + 1))
    if window == ones:
        return True
    for start in range(2, n - k + 2):
        window += w.bit(start + k - 1) - w.bit(start - 1)
        if window == ones:
            return True
    return False


# --- persistent format -----------------------------------------------------
#
# magic "PNFIX1" | n as u64 LE | pnf1 bits | pnf0 bits | fmax | fmin
#
# Words are packed LSB-first (position 8j+i+1 at bit i of byte j) and
# padded to a byte boundary; each profile is n+1 u32 LE values.


def _pack_word(w: BinaryWord) -> bytes:
    return w.packed.to_bytes((len(w) + 7) // 8, "little")


def _unpack_word(data: bytes, n: int) -> BinaryWord:
    bits = int.from_bytes(data, "little")
    if bits >> n:
        raise IndexFormatError("padding bits beyond the word length are set")
    return BinaryWord(bits, n)


def dump_index(ix: JumbledIndex, fp: BinaryIO) -> None:
    fp.write(MAGIC)
    fp.write(struct.pack("<Q", ix.n))
    fp.write(_pack_word(ix.pnf_pair.pnf1))
    fp.write(_pack_word(ix.pnf_pair.pnf0))
    fp.write(struct.pack(f"<{ix.n + 1}I", *ix.fmax.values))
    fp.write(struct.pack(f"<{ix.n + 1}I", *ix.fmin.values))


def load_index(fp: BinaryIO) -> JumbledIndex:
    """Read an index back, rejecting unknown or inconsistent files."""
    magic = fp.read(len(MAGIC))
    if magic != MAGIC:
        raise IndexFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    header = fp.read(8)
    if len(header) != 8:
        raise IndexFormatError("truncated header")
    (n,) = struct.unpack("<Q", header)
    word_bytes = (n + 7) // 8
    profile_bytes = 4 * (n + 1)
    body = fp.read(2 * word_bytes + 2 * profile_bytes + 1)
    if len(body) != 2 * word_bytes + 2 * profile_bytes:
        raise IndexFormatError("file length does not match the stored word length")
    pnf1 = _unpack_word(body[:word_bytes], n)
    pnf0 = _unpack_word(body[word_bytes : 2 * word_bytes], n)
    offset = 2 * word_bytes
    fmax_vals = struct.unpack(f"<{n + 1}I", body[offset : offset + profile_bytes])
    fmin_vals = struct.unpack(f"<{n + 1}I", body[offset + profile_bytes :])
    ix = JumbledIndex(
        n=n,
        fmax=OnesProfile("max_ones", fmax_vals),
        fmin=OnesProfile("min_ones", fmin_vals),
        pnf_pair=PnfPair(pnf1, pnf0),
        rank1_dir=RankDirectory(pnf1),
        rank0_dir=RankDirectory(pnf0),
    )
    _validate(ix)
    return ix


def _validate(ix: JumbledIndex) -> None:
    p1 = ix.pnf_pair.pnf1.prefix_counts(1)
    p0 = ix.pnf_pair.pnf0.prefix_counts(1)
    for k in range(ix.n + 1):
        if ix.fmax[k] != p1[k] or ix.fmin[k] != p0[k]:
            raise IndexFormatError(f"profiles disagree with the normal forms at length {k}")
        if ix.fmin[k] > ix.fmax[k]:
            raise IndexFormatError(f"minimum exceeds maximum at length {k}")
        if k and not 0 <= ix.fmax[k] - ix.fmax[k - 1] <= 1:
            raise IndexFormatError(f"maximum profile step at length {k} is not 0 or 1")
        if k and not 0 <= ix.fmin[k] - ix.fmin[k - 1] <= 1:
            raise IndexFormatError(f"minimum profile step at length {k} is not 0 or 1")
