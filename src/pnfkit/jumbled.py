"""Linear-size index for indexed binary jumbled pattern matching.

A query asks whether any factor of the indexed word has a given number
of ones and zeros. Storing, per factor length k, the maximum and
minimum ones-counts answers that in constant time. Those two arrays are
the ones-prefix counts of the word's two normal forms, so the index is
the pair of forms plus their prefix counts, two tuples of n + 1 counts
derived once in O(n). JumbledIndex.query_many is the lookup for a batch.
"""

from __future__ import annotations

import io
from binascii import crc32
from operator import add, gt
from typing import BinaryIO, NamedTuple, Sequence

from .bitword import BinaryWord
from .errors import IndexFormatError
from .pnf import PnfPair, pnf_pair

MAGIC = b"PNFIX2"


class JumbledIndex(NamedTuple):
    """Immutable query structure for one word; share freely across threads.

    fmax and fmin are tuples of n + 1 counts, the ones-prefix counts of
    pnf_pair.pnf1 and pnf_pair.pnf0: the maximum- and minimum-ones
    profiles of the word.
    """

    n: int
    fmax: tuple[int, ...]
    fmin: tuple[int, ...]
    pnf_pair: PnfPair

    def query(self, *, ones: int, zeros: int) -> bool:
        """Does some factor contain exactly this many ones and zeros?

        Answered from the prefix counts of the two forms. Totals longer
        than the word answer False: no factor is that long.
        """
        _check_counts(ones, zeros)
        k = ones + zeros
        return k <= self.n and self.fmin[k] <= ones <= self.fmax[k]

    def query_many(self, ones: Sequence[int], zeros: Sequence[int]) -> list[bool]:
        """query on each pair (ones[i], zeros[i]). The comprehension repeats
        query's comparison: a call of query per pair costs more than it."""
        if len(ones) != len(zeros):
            raise ValueError(f"{len(ones)} ones counts but {len(zeros)} zeros counts")
        _check_counts(min(ones, default=0), min(zeros, default=0))
        n, fmin, fmax = self.n, self.fmin, self.fmax
        return [k <= n and fmin[k] <= o <= fmax[k] for o, k in zip(ones, map(add, ones, zeros))]

    # fmax[k] and fmin[k] are rank(1, k) on the two forms, so the rank
    # lookup is the same lookup.
    query_via_rank = query


def _check_counts(ones: int, zeros: int) -> None:
    if ones < 0 or zeros < 0:
        raise ValueError("ones and zeros must be non-negative")


def build_index(w: BinaryWord, *, unsafe_large: bool = False) -> JumbledIndex:
    """Build the index: the two normal forms and their prefix counts.

    Each form costs one kernel pass over the positions of the rarer symbol.
    """
    return _index_of(pnf_pair(w, unsafe_large=unsafe_large))


def _index_of(pair: PnfPair) -> JumbledIndex:
    return JumbledIndex(
        n=len(pair.pnf1),
        fmax=tuple(pair.pnf1.prefix_counts(1)),
        fmin=tuple(pair.pnf0.prefix_counts(1)),
        pnf_pair=pair,
    )


def query_bruteforce(w: BinaryWord, *, ones: int, zeros: int) -> bool:
    """Oracle: scan every factor's ones-count off w's own prefix counts."""
    _check_counts(ones, zeros)
    k = ones + zeros
    p = w.prefix_counts(1)
    return any(p[i + k] - p[i] == ones for i in range(len(w) - k + 1))


# --- persistent format -----------------------------------------------------
#
# magic "PNFIX2" | n as u64 LE | pnf1 bits | pnf0 bits | CRC-32 as u32 LE
#
# Words are packed LSB-first (position 8j+i+1 at bit i of byte j) and
# padded to a byte boundary. The CRC-32 (binascii.crc32) covers every
# byte before it. The profiles are not stored: they are the ones-prefix
# counts of the forms, derived on load.


def _pack_word(w: BinaryWord) -> bytes:
    return w.packed.to_bytes((len(w) + 7) // 8, "little")


def _unpack_word(data: bytes, n: int) -> BinaryWord:
    bits = int.from_bytes(data, "little")
    if bits >> n:
        raise IndexFormatError("padding bits beyond the word length are set")
    return BinaryWord(bits, n)


def dump_index(ix: JumbledIndex, fp: BinaryIO) -> None:
    data = b"".join((MAGIC, ix.n.to_bytes(8, "little"), *map(_pack_word, ix.pnf_pair)))
    fp.write(data + crc32(data).to_bytes(4, "little"))


def load_index(fp: BinaryIO) -> JumbledIndex:
    """Read an index back from a seekable file, rejecting unknown or
    inconsistent ones.

    The stored length must match the bytes left in the file before any
    of them is read. Then the CRC-32 must match, the padding bits must
    be clear, and the prefix counts of the two forms must be consistent:
    the minimum never exceeds the maximum, and both end at the same
    number of ones.
    """
    magic = fp.read(len(MAGIC))
    if magic != MAGIC:
        raise IndexFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    header = fp.read(8)
    if len(header) != 8:
        raise IndexFormatError("truncated header")
    n = int.from_bytes(header, "little")
    word_bytes = (n + 7) // 8
    here = fp.tell()
    left = fp.seek(0, io.SEEK_END) - here
    if left != 2 * word_bytes + 4:
        raise IndexFormatError("file length does not match the stored word length")
    fp.seek(here)
    body = fp.read(left)
    if crc32(body[:-4], crc32(magic + header)) != int.from_bytes(body[-4:], "little"):
        raise IndexFormatError("CRC-32 mismatch: the file is corrupt")
    ix = _index_of(
        PnfPair(
            _unpack_word(body[:word_bytes], n),
            _unpack_word(body[word_bytes:-4], n),
        )
    )
    if any(map(gt, ix.fmin, ix.fmax)):
        raise IndexFormatError("minimum exceeds maximum profile")
    if ix.fmax[n] != ix.fmin[n]:
        raise IndexFormatError("the normal forms differ in their number of ones")
    return ix
