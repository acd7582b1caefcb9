import io
import struct
from binascii import crc32

import pytest

from pnfkit import (
    BinaryWord,
    IndexFormatError,
    JumbledIndex,
    build_index,
    dump_index,
    load_index,
    parse_word,
    pnf0,
    pnf1,
    query_bruteforce,
)
from conftest import all_words, random_word


class TestBuild:
    def test_reference_profiles(self):
        ix = build_index(parse_word("1001101"))
        assert ix.fmax == (0, 1, 2, 2, 3, 3, 3, 4)
        assert ix.fmin == (0, 0, 0, 1, 2, 2, 3, 4)

    def test_empty(self):
        ix = build_index(parse_word(""))
        assert ix.n == 0
        assert ix.fmax == (0,)
        assert ix.fmin == (0,)

    def test_all_ones(self):
        ix = build_index(parse_word("1111"))
        assert ix.fmax == ix.fmin == (0, 1, 2, 3, 4)

    def test_profiles_come_from_normal_forms(self, rng):
        for _ in range(25):
            w = random_word(rng, rng.randrange(0, 30))
            ix = build_index(w)
            assert ix.pnf_pair.pnf1 == pnf1(w)
            assert ix.pnf_pair.pnf0 == pnf0(w)
            for k in range(ix.n + 1):
                assert ix.fmax[k] == ix.pnf_pair.pnf1.rank(1, k)
                assert ix.fmin[k] == ix.pnf_pair.pnf0.rank(1, k)
                assert ix.fmin[k] <= ix.fmax[k]


class TestQueries:
    def test_reference_queries(self):
        ix = build_index(parse_word("1001101"))
        assert ix.query(ones=3, zeros=2)
        assert not ix.query(ones=0, zeros=3)
        assert ix.query(ones=0, zeros=0)
        assert ix.query_via_rank(ones=2, zeros=2)
        assert not ix.query_via_rank(ones=4, zeros=0)

    def test_empty_factor_always_occurs(self, rng):
        for _ in range(10):
            ix = build_index(random_word(rng, rng.randrange(0, 20)))
            assert ix.query(ones=0, zeros=0)
            assert ix.query_via_rank(ones=0, zeros=0)

    def test_overlong_totals_answer_false(self):
        ix = build_index(parse_word("101"))
        assert not ix.query(ones=2, zeros=2)
        assert not ix.query_via_rank(ones=4, zeros=0)

    def test_negative_counts_rejected(self):
        ix = build_index(parse_word("101"))
        with pytest.raises(ValueError):
            ix.query(ones=-1, zeros=0)

    def test_oracle_equivalence_small(self):
        for n in range(11):
            for w in all_words(n):
                ix = build_index(w)
                for total in range(n + 1):
                    for ones in range(total + 1):
                        zeros = total - ones
                        expected = query_bruteforce(w, ones=ones, zeros=zeros)
                        assert ix.query(ones=ones, zeros=zeros) == expected
                        assert ix.query_via_rank(ones=ones, zeros=zeros) == expected

    def test_bruteforce_matches_string_scan(self):
        # The oracle against a slice count of every factor, from the empty
        # factor (k = 0) to totals one past the word (k = n + 1).
        for n in range(9):
            for w in all_words(n):
                text = w.to01()
                for k in range(n + 2):
                    counts = {text[i : i + k].count("1") for i in range(n - k + 1)}
                    for ones in range(k + 1):
                        assert query_bruteforce(w, ones=ones, zeros=k - ones) == (ones in counts), (text, k, ones)

    def test_oracle_equivalence_invariant_to_16(self):
        # The acceptance gate scans lengths <= 14; this finishes the
        # stated exhaustive bound. Among the slowest tests in the suite.
        for n in (15, 16):
            for bits in range(1 << n):
                w = BinaryWord(bits, n)
                ix = build_index(w)
                prefix = w.prefix_counts(1)
                occurs = {(0, 0)}
                for i in range(n):
                    for j in range(i + 1, n + 1):
                        ones = prefix[j] - prefix[i]
                        occurs.add((ones, (j - i) - ones))
                for total in range(17):
                    for ones in range(total + 1):
                        expected = (ones, total - ones) in occurs
                        assert ix.query(ones=ones, zeros=total - ones) == expected

    def test_query_many_matches_query_and_oracle(self):
        # Every word of length <= 10, every total up to two past the word.
        for n in range(11):
            for w in all_words(n):
                ix = build_index(w)
                pairs = [(ones, total - ones) for total in range(n + 3) for ones in range(total + 1)]
                ones, zeros = [p[0] for p in pairs], [p[1] for p in pairs]
                expected = [query_bruteforce(w, ones=o, zeros=z) for o, z in pairs]
                assert ix.query_many(ones, zeros) == expected
                assert [ix.query(ones=o, zeros=z) for o, z in pairs] == expected

    @pytest.mark.parametrize("ones, zeros", [([1, -1], [0, 0]), ([0], [-3]), ([1, 2], [0]), ([1], [1, 2])])
    def test_query_many_rejects_bad_batches(self, ones, zeros):
        ix = build_index(parse_word("101"))
        with pytest.raises(ValueError):
            ix.query_many(ones, zeros)

    def test_query_many_empty_and_huge(self):
        ix = build_index(parse_word("101"))
        assert ix.query_many([], []) == []
        assert ix.query_many([10**28, 0], [0, 10**28]) == [False, False]

    def test_query_via_rank_is_query(self):
        # One lookup under two names, so checking query checks both.
        assert JumbledIndex.query_via_rank is JumbledIndex.query

    def test_interval_structure(self, rng):
        for _ in range(20):
            w = random_word(rng, rng.randrange(1, 16))
            ix = build_index(w)
            for k in range(1, len(w) + 1):
                hits = {ones for ones in range(k + 1) if ix.query(ones=ones, zeros=k - ones)}
                assert hits == set(range(ix.fmin[k], ix.fmax[k] + 1))

    def test_long_word_spot_checks(self, rng):
        # a word well past toy sizes
        w = random_word(rng, 1500)
        ix = build_index(w)
        for _ in range(200):
            k = rng.randrange(0, len(w) + 1)
            ones = rng.randrange(0, k + 1)
            expected = query_bruteforce(w, ones=ones, zeros=k - ones)
            assert ix.query(ones=ones, zeros=k - ones) == expected
            assert ix.query_via_rank(ones=ones, zeros=k - ones) == expected

    def test_index_of_normal_form_shares_profile_half(self, rng):
        for _ in range(20):
            w = random_word(rng, rng.randrange(0, 25))
            ix = build_index(w)
            assert build_index(pnf1(w)).fmax == ix.fmax
            assert build_index(pnf0(w)).fmin == ix.fmin


class TestSerialization:
    def roundtrip(self, w):
        ix = build_index(w)
        buf = io.BytesIO()
        dump_index(ix, buf)
        buf.seek(0)
        loaded = load_index(buf)
        assert loaded.n == ix.n
        assert loaded.fmax == ix.fmax
        assert loaded.fmin == ix.fmin
        assert loaded.pnf_pair == ix.pnf_pair
        # magic, n, the two forms and the CRC-32: no stored profiles.
        assert len(buf.getvalue()) == 18 + 2 * ((len(w) + 7) // 8)
        return buf.getvalue()

    def test_roundtrip(self, rng):
        self.roundtrip(parse_word(""))
        self.roundtrip(parse_word("1001101"))
        for _ in range(20):
            self.roundtrip(random_word(rng, rng.randrange(0, 100)))
        self.roundtrip(random_word(rng, 4096))

    def test_magic_header(self):
        data = self.roundtrip(parse_word("1001101"))
        assert data.startswith(b"PNFIX2")

    def test_bad_magic_rejected(self):
        data = bytearray(self.roundtrip(parse_word("1001101")))
        data[0] ^= 0xFF
        with pytest.raises(IndexFormatError):
            load_index(io.BytesIO(bytes(data)))

    def test_truncation_rejected(self):
        data = self.roundtrip(parse_word("1001101"))
        with pytest.raises(IndexFormatError):
            load_index(io.BytesIO(data[:-1]))
        with pytest.raises(IndexFormatError):
            load_index(io.BytesIO(data[:8]))

    def test_trailing_garbage_rejected(self):
        data = self.roundtrip(parse_word("1001101"))
        with pytest.raises(IndexFormatError):
            load_index(io.BytesIO(data + b"\x00"))

    def test_corrupt_checksum_rejected(self):
        data = bytearray(self.roundtrip(parse_word("1001101")))
        data[-1] ^= 0x40
        with pytest.raises(IndexFormatError, match="CRC-32"):
            load_index(io.BytesIO(bytes(data)))

    def test_pnfix1_file_rejected(self):
        # The PNFIX1 layout: the two forms followed by both profiles as
        # n + 1 u32 LE values each, no checksum.
        ix = build_index(parse_word("1001101"))
        data = (
            b"PNFIX1"
            + struct.pack("<Q", ix.n)
            + ix.pnf_pair.pnf1.packed.to_bytes(1, "little")
            + ix.pnf_pair.pnf0.packed.to_bytes(1, "little")
            + struct.pack(f"<{2 * (ix.n + 1)}I", *ix.fmax, *ix.fmin)
        )
        with pytest.raises(IndexFormatError, match=r"b'PNFIX1', expected b'PNFIX2'"):
            load_index(io.BytesIO(data))

    @pytest.mark.parametrize(
        "form1, form0, message",
        [
            # The PNF1 of 1001101 beside a PNF0 with one 1 fewer: fmin <=
            # fmax holds, but every real index has fmax[n] == fmin[n] == |w|_1.
            ("1101001", "0010011", "number of ones"),
            # Equal density, but the minimum passes the maximum.
            ("0011", "1100", "minimum exceeds maximum"),
        ],
    )
    def test_inconsistent_forms_rejected(self, form1, form0, message):
        # A valid checksum, so only the consistency checks can refuse it.
        pnf1, pnf0 = parse_word(form1), parse_word(form0)
        data = (
            b"PNFIX2"
            + struct.pack("<Q", len(pnf1))
            + pnf1.packed.to_bytes(1, "little")
            + pnf0.packed.to_bytes(1, "little")
        )
        data += struct.pack("<I", crc32(data))
        with pytest.raises(IndexFormatError, match=message):
            load_index(io.BytesIO(data))

    def test_padding_bit_rejected(self):
        # The forms of 1001101 with bit 7 of the PNF1 byte set, past n = 7,
        # under a valid checksum: only the padding check can refuse it.
        ix = build_index(parse_word("1001101"))
        pnf1, pnf0 = ix.pnf_pair
        data = b"PNFIX2" + struct.pack("<Q", 7) + bytes([pnf1.packed | 0x80, pnf0.packed])
        data += struct.pack("<I", crc32(data))
        with pytest.raises(IndexFormatError, match="padding"):
            load_index(io.BytesIO(data))

    @pytest.mark.parametrize("text", ["", "1001101", "1101100101110001"])
    def test_every_truncation_and_byte_flip_rejected(self, text):
        data = self.roundtrip(parse_word(text))
        for cut in range(len(data)):
            with pytest.raises(IndexFormatError):
                load_index(io.BytesIO(data[:cut]))
        for offset in range(len(data)):
            for mask in range(1, 256):
                bad = bytearray(data)
                bad[offset] ^= mask
                with pytest.raises(IndexFormatError):
                    load_index(io.BytesIO(bytes(bad)))
