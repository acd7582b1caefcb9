import io
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
from binascii import crc32
from decimal import Decimal
from pathlib import Path

import pytest

import pnfkit
from pnfkit import build_index, cli, parse_word
from pnfkit.bitword import PROFILE_LENGTH_GUARD
from pnfkit.cli import _BLOCK_LINES, _ROW_CAP, main
from pnfkit.lyndon import count_prenecklaces
from pnfkit.normality import CHARACTERISATION_GUARD
from pnfkit.pnf import PARIKH_SET_LENGTH_GUARD


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPnf:
    def test_both(self, capsys):
        code, out, _ = run(capsys, "pnf", "1001101", "--bit", "both")
        assert code == 0
        assert out == "PNF1=1101001\nPNF0=0011011\n"

    def test_bit_zero(self, capsys):
        assert run(capsys, "pnf", "1001101", "--bit", "0") == (0, "PNF0=0011011\n", "")

    def test_default_bit_is_one(self, capsys):
        code, out, _ = run(capsys, "pnf", "0000")
        assert code == 0
        assert out == "PNF1=0000\n"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "pnf", "10a1")
        assert code == 2
        assert "position 3" in err

    def test_json_mirrors_fields(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "pnf", "1001101", "--bit", "both")
        assert code == 0
        assert json.loads(out) == [{"word": "1001101", "pnf1": "1101001", "pnf0": "0011011"}]

    def test_word_from_file(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1001101\n")
        code, out, _ = run(capsys, "pnf", "--file", str(path))
        assert code == 0
        assert out == "PNF1=1101001\n"

    def test_non_ascii_byte_in_file_names_position(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_bytes("10\u00e91\n".encode("utf-8"))
        code, out, err = run(capsys, "pnf", "--file", str(path))
        assert code == 2 and out == ""
        assert err == "error: invalid character '\\udcc3' at position 3 (expected '0' or '1')\n"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "pnf", "--file", str(tmp_path / "absent.txt"))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_exactly_one_source(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1\n")
        code, _, err = run(capsys, "pnf", "101", "--file", str(path))
        assert code == 2
        assert "exactly one" in err

    def test_word_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1001101\n"))
        code, out, _ = run(capsys, "pnf", "--stdin")
        assert code == 0 and out == "PNF1=1101001\n"

    def test_oversized_stdin_read_in_bounded_pieces(self, capsys, monkeypatch):
        sizes = []

        class Stdin(io.StringIO):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        monkeypatch.setattr("sys.stdin", Stdin("1" * 300_000 + "\n"))
        code, out, err = run(capsys, "pnf", "--stdin")
        assert (code, out) == (3, "")
        assert err == "error: word length 300000 refused: the limit is 100000\n"
        assert all(size is not None and 0 <= size <= PROFILE_LENGTH_GUARD + 2 for size in sizes)

    @pytest.mark.parametrize("command", ["pnf", "index"])
    @pytest.mark.parametrize(
        "text, length",
        [
            ("1" * 150_000, 150_000),
            ("1" * 150_000 + "\n\n", 150_000),
            ("1" * 150_000 + "x\n", 150_001),
            ("1" * 100_000 + "\n\n1", 100_003),
            ("1" * 150_000 + ("\n" * 70_000 + "1") * 2 + "\n", 290_002),
            ("1" * 150_000 + "x" + "1" * 50_000 + "\n", 150_001),
        ],
        ids=[
            "bare", "newlines", "bad-character", "newlines-past-the-guard", "newlines-across-chunks",
            "bad-character-ends-the-count",
        ],
    )
    def test_oversized_file_refused_by_its_length(self, capsys, tmp_path, command, text, length):
        # The size refusal comes before parsing: a bad character in an
        # oversized word is not reported, and the count stops there.
        # Newlines count once a symbol follows them.
        path = tmp_path / "w.txt"
        path.write_text(text)
        argv = {
            "pnf": ["pnf", "--file", str(path)],
            "index": ["index", "build", str(path), "-o", str(tmp_path / "w.pnfix")],
        }[command]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: word length {length} refused: the limit is 100000\n"

    def test_word_at_the_guard_with_trailing_newlines(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1" * PROFILE_LENGTH_GUARD + "\n" * 5)
        assert run(capsys, "check", "--file", str(path)) == (0, "normal\n", "")

    def test_endless_input_that_is_not_a_word_is_refused(self, capsys, monkeypatch):
        # Like /dev/zero on stdin: a held NUL ends the count at the held
        # characters, so nothing past them is read.
        stdin = Endless("", "\0")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "pnf", "--stdin")
        assert (code, out) == (3, "")
        assert err == "error: word length 100002 refused: the limit is 100000\n"
        assert len(stdin.sizes) == 1

    def test_bad_character_among_the_held_ones_ends_the_count(self, capsys, monkeypatch):
        # 0x, then 0s without end: the x is held, so the endless 0s past the
        # held characters are not counted.
        stdin = Endless("0x", "0")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "pnf", "--stdin")
        assert (code, out) == (3, "")
        assert err == "error: word length 100002 refused: the limit is 100000\n"
        assert len(stdin.sizes) == 1


class Endless:
    """A text stream of head, then fill without end, that fails its third read."""

    def __init__(self, head, fill):
        self.head, self.fill, self.sizes = head, fill, []

    def read(self, size=-1):
        assert size is not None and size >= 0 and len(self.sizes) < 2
        self.sizes.append(size)
        text = (self.head + self.fill * size)[:size]
        self.head = self.head[size:]
        return text


class ReadLog:
    """A text stream that records the size of every read."""

    def __init__(self, fp):
        self.fp, self.sizes = fp, []

    def read(self, size=-1):
        self.sizes.append(size)
        return self.fp.read(size)

    def __getattr__(self, name):
        return getattr(self.fp, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fp.close()


# Each word command: (argv before the word source, argv after it, the guard
# that refuses a long word, its limit).
WORD_GUARDS = {
    "pnf": (["pnf"], [], "word length", PROFILE_LENGTH_GUARD),
    "pnf-both": (["pnf"], ["--bit", "both"], "word length", PROFILE_LENGTH_GUARD),
    "check-def": (["check"], [], "word length", PROFILE_LENGTH_GUARD),
    **{
        f"check-{method}": (["check"], ["--method", method], "characterisation length", CHARACTERISATION_GUARD)
        for method in ["subadd", "pos", "possuper", "gaps", "all"]
    },
    "parikh": (["parikh"], [], "Parikh set length", PARIKH_SET_LENGTH_GUARD),
    "region": (["region"], [], "word length", PROFILE_LENGTH_GUARD),
    "ext": (["ext"], ["1"], "word length", PROFILE_LENGTH_GUARD),
}


class TestWordGuard:
    """One rule for every word command and source: a word over the guard of
    the command's own work is refused by its length before it is parsed."""

    @pytest.mark.parametrize(
        "command, source",
        [*((command, source) for command in WORD_GUARDS for source in ["arg", "file", "stdin"]), ("index", "file")],
        ids=str,
    )
    def test_word_over_its_guard(self, capsys, monkeypatch, tmp_path, command, source):
        if command == "index":
            head, tail = ["index", "build"], ["-o", str(tmp_path / "w.pnfix")]
            what, limit = "word length", PROFILE_LENGTH_GUARD
        else:
            head, tail, what, limit = WORD_GUARDS[command]
        # 01^limit keeps the lifted run cheap: it is not normal, and its
        # profiles cost O(n).
        word = "0" + "1" * limit
        path = tmp_path / "w.txt"
        path.write_text(word + "\n")
        sources = {"arg": [word], "file": [str(path)], "stdin": ["--stdin"]}
        if command != "index":
            sources["file"].insert(0, "--file")
        parsed, streams = [], []

        def parse_word(text):
            parsed.append(len(text))
            return pnfkit.parse_word(text)

        def logged(fp):
            streams.append(ReadLog(fp))
            return streams[-1]

        monkeypatch.setattr(cli, "parse_word", parse_word)
        monkeypatch.setattr(cli, "open", lambda *a, **k: logged(open(*a, **k)), raising=False)
        refusal = f"error: {what} {limit + 1} refused: the limit is {limit}\n"
        for unsafe in [[], ["--unsafe-large"]]:
            parsed.clear()
            streams.clear()
            monkeypatch.setattr("sys.stdin", logged(io.StringIO(word + "\n")))
            code, out, err = run(capsys, *head, *sources[source], *tail, *unsafe)
            if unsafe:
                assert parsed == [limit + 1] and err != refusal
                continue
            assert (code, out, err, parsed) == (3, "", refusal, [])
            reads = [stream.sizes for stream in streams if stream.sizes]
            if source == "arg":
                assert reads == []
            else:
                # The first read is the only one before the counting.
                ((first, *_),) = reads
                assert first is not None and 0 <= first <= limit + 2

    def test_check_names_its_own_guard_past_the_profile_guard(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0" + "1" * PROFILE_LENGTH_GUARD + "\n"))
        code, out, err = run(capsys, "check", "--method", "pos", "--stdin")
        assert (code, out) == (3, "")
        assert err == "error: characterisation length 100001 refused: the limit is 4096\n"


class TestCheck:
    def test_verdicts(self, capsys):
        code, out, _ = run(capsys, "check", "11010", "--bit", "1")
        assert code == 0 and out == "normal\n"
        code, out, _ = run(capsys, "check", "10110", "--bit", "1")
        assert code == 0 and out == "not normal\n"

    def test_bit_zero(self, capsys):
        code, out, _ = run(capsys, "check", "0011011", "--bit", "0")
        assert code == 0 and out == "normal\n"

    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "check", "11010", "--method", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.endswith(": normal") for line in lines)

    def test_all_methods_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "check", "10110", "--method", "all")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "word,method,normal"
        assert len(rows) == 6
        assert all(row.endswith("false") for row in rows[1:])

    def test_unsafe_large_lifts_profile_guard(self, capsys, tmp_path):
        # Profiles of 1^n cost O(n): the guard, not the work, is tested.
        path = tmp_path / "w.txt"
        path.write_text("1" * 100_001 + "\n")
        code, out, err = run(capsys, "check", "--file", str(path))
        assert code == 3 and out == "" and "100000" in err
        code, out, _ = run(capsys, "--unsafe-large", "check", "--file", str(path))
        assert code == 0 and out == "normal\n"

    @pytest.mark.parametrize("method", ["subadd", "pos", "possuper", "gaps", "all"])
    def test_characterisation_guard(self, capsys, tmp_path, method):
        # 01^4096 is not normal, and every characterisation sees that at
        # once, so the lifted run stays cheap.
        path = tmp_path / "w.txt"
        path.write_text("0" + "1" * 4096 + "\n")
        code, out, err = run(capsys, "check", "--file", str(path), "--method", method)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "4096" in err
        code, out, _ = run(capsys, "check", "--file", str(path), "--method", method, "--unsafe-large")
        assert code == 0 and out.endswith("not normal\n")

    def test_characterisation_guard_spares_def(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("0" + "1" * 4096 + "\n")
        code, out, _ = run(capsys, "check", "--file", str(path))
        assert code == 0 and out == "not normal\n"


# The text before a row of a query-batch CSV: none, a row, a header, and
# rows that end a few characters before a 64 KiB boundary.
ROW_HEADS = ["", "3,2\n", "ones,zeros\n", "3,2\n" * (_ROW_CAP // 4 - 1)]
ROW_HEAD_IDS = ["1", "2", "after-header", "near-a-boundary"]


class TestIndex:
    def test_build_query_roundtrip(self, capsys, tmp_path):
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        code, out, _ = run(capsys, "index", "build", str(wordfile), "-o", str(ixfile))
        assert code == 0 and out == f"indexed 7 symbols -> {ixfile}\n"
        data = ixfile.read_bytes()
        assert data.startswith(b"PNFIX2") and len(data) == 20

        code, out, _ = run(capsys, "index", "query", str(ixfile), "--ones", "3", "--zeros", "2")
        assert code == 0 and out == "yes\n"
        code, out, _ = run(capsys, "index", "query", str(ixfile), "--ones", "0", "--zeros", "3")
        assert code == 0 and out == "no\n"
        code, out, _ = run(capsys, "index", "query", str(ixfile), "--ones", "0", "--zeros", "0")
        assert code == 0 and out == "yes\n"

    def test_query_batch(self, capsys, tmp_path):
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        run(capsys, "index", "build", str(wordfile), "-o", str(ixfile))
        queries = tmp_path / "queries.csv"
        queries.write_text("ones,zeros\n3,2\n0,3\n4,0\n")
        code, out, _ = run(capsys, "index", "query-batch", str(ixfile), str(queries))
        assert code == 0
        assert out == "yes\nno\nno\n"
        code, out, _ = run(
            capsys, "--format", "csv", "index", "query-batch", str(ixfile), str(queries)
        )
        assert out.splitlines() == ["ones,zeros,answer", "3,2,yes", "0,3,no", "4,0,no"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_query_batch_rows_across_read_chunks(self, capsys, tmp_path, newline):
        # About 7 times 64 KiB, with blank rows, padding and no final
        # newline: every row is answered, in order, wherever a read ends.
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        run(capsys, "index", "build", str(wordfile), "-o", str(ixfile))
        ix = build_index(parse_word("1001101"))
        rng = random.Random(7)
        pairs = [(rng.randrange(9), rng.randrange(9)) for _ in range(40_000)]
        lines = [" ones , zeros"] + [f"{o},{z}" + " " * (i % 3) for i, (o, z) in enumerate(pairs)]
        queries = tmp_path / "queries.csv"
        queries.write_bytes((newline * 2).join(lines).encode("ascii"))
        code, out, err = run(capsys, "index", "query-batch", str(ixfile), str(queries))
        assert (code, err) == (0, "")
        assert out.splitlines() == ["yes" if ix.query(ones=o, zeros=z) else "no" for o, z in pairs]

    def test_build_honours_format(self, capsys, tmp_path):
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        code, out, _ = run(capsys, "--format", "csv", "index", "build", str(wordfile), "-o", str(ixfile))
        assert code == 0 and out == f"n,output\n7,{ixfile}\n"
        code, out, _ = run(capsys, "--format", "json", "index", "build", str(wordfile), "-o", str(ixfile))
        assert code == 0 and json.loads(out) == [{"n": 7, "output": str(ixfile)}]

    @pytest.mark.parametrize("row", ["-1,2", "2,-1", "1,x", "1,2,3"])
    def test_query_batch_negative_count_names_row(self, capsys, tmp_path, row):
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        run(capsys, "index", "build", str(wordfile), "-o", str(ixfile))
        queries = tmp_path / "queries.csv"
        queries.write_text(f"3,2\n{row}\n")
        code, out, err = run(capsys, "index", "query-batch", str(ixfile), str(queries))
        assert code == 2 and out == ""
        assert err == f"error: {queries}:2: expected 'ones,zeros' of counts >= 0, got {row!r}\n"

    @pytest.mark.parametrize("head", ROW_HEADS, ids=ROW_HEAD_IDS)
    @pytest.mark.parametrize(
        "row",
        ["9" * 1_000_000, "3,2" + " " * 1_000_000, "3,2" + " " * (_ROW_CAP - 3), "1," + "x" * 1_000],
        ids=["past-cap", "padded", "at-cap", "under-cap"],
    )
    def test_query_batch_long_row_quoted_by_a_prefix(self, capsys, tmp_path, head, row):
        # Rows that reach the row cap are malformed even when they would
        # parse, wherever they start; the last is read whole. Each is quoted
        # by its first 80 characters.
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        run(capsys, "index", "build", str(wordfile), "-o", str(ixfile))
        queries = tmp_path / "queries.csv"
        queries.write_text(head + row + "\n3,2\n")
        code, out, err = run(capsys, "index", "query-batch", str(ixfile), str(queries))
        assert code == 2 and out == ""
        lineno = head.count("\n") + 1
        expected = f"error: {queries}:{lineno}: expected 'ones,zeros' of counts >= 0, got {row[:80]!r}...\n"
        assert err == expected
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("head", ROW_HEADS, ids=ROW_HEAD_IDS)
    def test_query_batch_row_under_the_cap_is_answered(self, capsys, tmp_path, head):
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        run(capsys, "index", "build", str(wordfile), "-o", str(ixfile))
        queries = tmp_path / "queries.csv"
        queries.write_text(head + " " * (_ROW_CAP - 4) + "1,2\n0,3\n")
        code, out, err = run(capsys, "index", "query-batch", str(ixfile), str(queries))
        answers = ["yes"] * (head.count("\n") - head.startswith("ones")) + ["yes", "no"]
        assert (code, out.splitlines(), err) == (0, answers, "")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit before Python 3.10.7")
    def test_query_batch_count_past_the_digit_limit_is_malformed(self, capsys, tmp_path):
        # The int-to-str digit limit is lifted only to write the output: the
        # rows are parsed under it.
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        run(capsys, "index", "build", str(wordfile), "-o", str(ixfile))
        queries = tmp_path / "queries.csv"
        queries.write_text("9" * 5_000 + ",1\n")
        code, out, err = run(capsys, "index", "query-batch", str(ixfile), str(queries))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {queries}:1: expected 'ones,zeros' of counts >= 0, got '9999")

    def test_corrupt_index_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.pnfix"
        bad.write_bytes(b"NOTMAGIC")
        code, _, err = run(capsys, "index", "query", str(bad), "--ones", "1", "--zeros", "1")
        assert code == 1
        assert "magic" in err

    @pytest.mark.parametrize("n", [2**63, 2**64 - 1])
    def test_hostile_length_header_rejected(self, capsys, tmp_path, n):
        # An 18-byte file whose header claims a huge word, with a valid
        # CRC-32 of its empty forms: rejected from the file size, before
        # anything sized by n is read or allocated.
        head = b"PNFIX2" + struct.pack("<Q", n)
        bad = tmp_path / "hostile.pnfix"
        bad.write_bytes(head + struct.pack("<I", crc32(head)))
        code, out, err = run(capsys, "index", "query", str(bad), "--ones", "1", "--zeros", "1")
        assert code == 1 and out == ""
        assert err == "error: file length does not match the stored word length\n"

    def test_pnfix1_file_rejected(self, capsys, tmp_path):
        # The PNFIX1 layout of 1001101: magic, n, the two forms, then both
        # profiles as eight u32 LE values each.
        ix = build_index(parse_word("1001101"))
        old = tmp_path / "old.pnfix"
        old.write_bytes(
            b"PNFIX1"
            + struct.pack("<Q", 7)
            + bytes([ix.pnf_pair.pnf1.packed, ix.pnf_pair.pnf0.packed])
            + struct.pack("<16I", *ix.fmax, *ix.fmin)
        )
        code, out, err = run(capsys, "index", "query", str(old), "--ones", "3", "--zeros", "2")
        assert code == 1 and out == ""
        assert err == "error: bad magic b'PNFIX1', expected b'PNFIX2'\n"

    def test_build_bad_character_names_position(self, capsys, tmp_path):
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("10x1\n")
        code, out, err = run(capsys, "index", "build", str(wordfile), "-o", str(tmp_path / "w.pnfix"))
        assert code == 2 and out == ""
        assert err == "error: invalid character 'x' at position 3 (expected '0' or '1')\n"
        assert not (tmp_path / "w.pnfix").exists()

    def test_build_non_ascii_byte_names_position(self, capsys, tmp_path):
        wordfile = tmp_path / "word.txt"
        wordfile.write_bytes("10\u00e91\n".encode("utf-8"))
        code, out, err = run(capsys, "index", "build", str(wordfile), "-o", str(tmp_path / "w.pnfix"))
        assert code == 2 and out == ""
        assert err == "error: invalid character '\\udcc3' at position 3 (expected '0' or '1')\n"
        assert not (tmp_path / "w.pnfix").exists()

    def test_query_batch_non_ascii_byte_names_row(self, capsys, tmp_path):
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        run(capsys, "index", "build", str(wordfile), "-o", str(ixfile))
        queries = tmp_path / "queries.csv"
        queries.write_bytes("ones,zeros\n3,2\n1,\u00e9\n".encode("utf-8"))
        code, out, err = run(capsys, "index", "query-batch", str(ixfile), str(queries))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {queries}:3: expected 'ones,zeros'") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["build", "query", "query-batch"])
    def test_format_after_index_arguments(self, capsys, tmp_path, command):
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        run(capsys, "index", "build", str(wordfile), "-o", str(ixfile))
        queries = tmp_path / "queries.csv"
        queries.write_text("3,2\n0,3\n")
        args = {
            "build": [str(wordfile), "-o", str(ixfile)],
            "query": [str(ixfile), "--ones", "3", "--zeros", "2"],
            "query-batch": [str(ixfile), str(queries)],
        }[command]
        leading = run(capsys, "--format", "csv", "index", command, *args)
        trailing = run(capsys, "index", command, *args, "--format", "csv")
        assert leading[0] == 0 and leading[1].count(",") >= 1
        assert trailing == leading
        # A trailing flag overrides a leading one.
        assert run(capsys, "--format", "json", "index", command, *args, "--format", "csv") == leading

    def test_unsafe_large_after_build_arguments(self, capsys, tmp_path):
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        code, out, _ = run(capsys, "index", "build", str(wordfile), "-o", str(ixfile), "--unsafe-large")
        assert code == 0 and out == f"indexed 7 symbols -> {ixfile}\n"


# Rows that query-batch answers, and rows it refuses, mixed with plain rows
# below: padding and characters that strip() removes, what int() takes but
# JSON does not, counts past 2^63, and header variants.
GOOD_ROWS = [
    "", "   ", "\t", "\x0c", "\x1c", "\t3,2", "3\t,2", "3,2\t", "\x0c3,2\x1c", "3,\x0c2", "3\x0b,2", " 3 , 2 ", "3 ,2",
    "1_0,2", "3,1_0", "+3,2", "3,+2", "-0,0", "007,2", "0,00", "1" * 30 + ",2", "2," + "9" * 29, "1" * 4300 + ",0",
]
BAD_ROWS = [
    "-1,2", "3,-1", "3,\x1c2", "1 2,3", "3,2 1", "3,\udcc3\udca9", "3", ",2", "3,", ",", "3,2,1", "0x10,2",
    "1e3,2", "1.0,2", "1" * 4301 + ",0", "ones,zeros", "ones;zeros",
]
HEADERS = ["", "ones,zeros", " Ones , Zeros\t", "ONES,ZEROS", "ones;zeros"]
PLAIN_ROWS = ["3,2", "0,3", "4,0", "1,1", "12,34", "0,0", "7,0", "2,2"]


class TestQueryBatchBlocks:
    """query-batch parses a whole block at once when every row in it is
    digits and spaces around one comma, and sends any other block through
    the row rules: stdout, stderr and exit code must be those of the row
    rules alone, in every format, wherever the blocks end."""

    @pytest.fixture
    def ixfile(self, capsys, tmp_path):
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        run(capsys, "index", "build", str(wordfile), "-o", str(ixfile))
        return ixfile

    def assert_same(self, capsys, monkeypatch, block, ixfile, queries):
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        argv = ["index", "query-batch", str(ixfile), str(queries)]
        blocks = [run(capsys, "--format", fmt, *argv) for fmt in ("text", "csv", "json")]
        with monkeypatch.context() as m:
            m.setattr(cli, "_answer_block", cli._answer_rows)
            rows = [run(capsys, "--format", fmt, *argv) for fmt in ("text", "csv", "json")]
        assert blocks == rows
        return blocks[0]

    def csv(self, tmp_path, lines, newline):
        queries = tmp_path / "queries.csv"
        queries.write_bytes(newline.join(lines).encode("ascii", "surrogateescape"))
        return queries

    @pytest.mark.parametrize("block", [7, 64, 8191, cli._CSV_BLOCK])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_edge_rows_answer_as_the_row_rules_do(self, capsys, monkeypatch, tmp_path, ixfile, block, newline):
        rng = random.Random(block)

        def plain():
            return rng.sample(PLAIN_ROWS, rng.randint(1, 4))

        # The first row ends its "\r\n" across the decoder's 8192-byte reads.
        lines = [" " * 8188 + "3,2"] + [row for good in GOOD_ROWS for row in (*plain(), good)] + plain()
        code, out, err = self.assert_same(capsys, monkeypatch, block, ixfile, self.csv(tmp_path, lines, newline))
        assert (code, err, out.count("\n")) == (0, "", sum(bool(line.strip()) for line in lines))
        for head in HEADERS:
            lines = [head, *plain(), "", *plain()]
            code, _, err = self.assert_same(capsys, monkeypatch, block, ixfile, self.csv(tmp_path, lines, newline))
            assert code == (2 if head == "ones;zeros" else 0)
        for bad in BAD_ROWS:
            head = plain()
            lines = [*head, bad, *plain(), ""]
            code, out, err = self.assert_same(capsys, monkeypatch, block, ixfile, self.csv(tmp_path, lines, newline))
            assert (code, out) == (2, "") and f":{len(head) + 1}: expected" in err

    @pytest.mark.parametrize("block", [4096, 8191, cli._CSV_BLOCK, 1 << 20])
    @pytest.mark.parametrize(
        "first, lineno",
        [
            (" " * (_ROW_CAP - 11) + "ones,zeros", None),
            (" " * (_ROW_CAP - 10) + "ones,zeros", 1),
            (" " * (_ROW_CAP - 4) + "1,2", None),
            ("1,2" + " " * (_ROW_CAP - 3), 1),
            ("9" * (_ROW_CAP + 5), 1),
            ("ones,zeros\n" + "3,2\n" * 5000 + " " * (_ROW_CAP - 3) + "1,2", 5002),
            ("3,2\n" * 5000 + "1," + "x" * _ROW_CAP, 5001),
        ],
        ids=[
            "header-under-cap", "header-at-cap", "row-under-cap", "row-at-cap", "past-cap", "late-at-cap",
            "late-past-cap",
        ],
    )
    def test_long_rows_across_blocks(self, capsys, monkeypatch, tmp_path, ixfile, block, first, lineno):
        # Rows that start in one block and end in a later one: the cap, then
        # the header rule, hold as for a row read whole.
        queries = self.csv(tmp_path, [first, "0,3", ""], "\n")
        code, out, err = self.assert_same(capsys, monkeypatch, block, ixfile, queries)
        if lineno is None:
            assert (code, err) == (0, "") and out.endswith("no\n")
        else:
            assert (code, out) == (2, "") and f":{lineno}: expected" in err and len(err) < 1024

    def test_long_row_read_to_one_block_past_the_cap(self, capsys, monkeypatch, tmp_path, ixfile):
        logs = []

        def logged(*args, **kwargs):
            logs.append(ReadLog(open(*args, **kwargs)))
            return logs[-1]

        monkeypatch.setattr(cli, "open", logged, raising=False)
        monkeypatch.setattr(cli, "_CSV_BLOCK", 4096)
        queries = self.csv(tmp_path, ["3,2", "9" * 1_000_000, ""], "\n")
        code, out, err = run(capsys, "index", "query-batch", str(ixfile), str(queries))
        assert (code, out) == (2, "") and ":2: expected" in err
        assert sum(logs[-1].sizes) <= _ROW_CAP + 2 * 4096

    def test_plain_rows_skip_the_row_rules(self, capsys, monkeypatch, tmp_path, ixfile):
        # Only the header candidate goes through the row rules.
        seen = []
        rules = cli._answer_rows

        def logged(ix, path, rows, *rest):
            seen.extend(rows)
            return rules(ix, path, rows, *rest)

        monkeypatch.setattr(cli, "_answer_rows", logged)
        monkeypatch.setattr(cli, "_CSV_BLOCK", 4096)
        queries = self.csv(tmp_path, ["ones,zeros", *PLAIN_ROWS * 1000, ""], "\n")
        code, out, _ = run(capsys, "index", "query-batch", str(ixfile), str(queries))
        assert (code, out.count("\n")) == (0, 8000)
        assert [row for row in seen if row] == ["ones,zeros"]

    def test_count_past_two_to_the_63_answers_no(self, capsys, ixfile, tmp_path):
        huge = "1" * 29
        queries = self.csv(tmp_path, ["3,2", f"{huge},0", f"0,{huge}", ""], "\n")
        argv = ["index", "query-batch", str(ixfile), str(queries)]
        assert run(capsys, *argv) == (0, "yes\nno\nno\n", "")
        csv_out = f"ones,zeros,answer\n3,2,yes\n{huge},0,no\n0,{huge},no\n"
        assert run(capsys, "--format", "csv", *argv) == (0, csv_out, "")
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == 0 and json.loads(out) == [
            {"ones": 3, "zeros": 2, "answer": "yes"},
            {"ones": int(huge), "zeros": 0, "answer": "no"},
            {"ones": 0, "zeros": int(huge), "answer": "no"},
        ]


class Recorder(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestBlockWrites:
    """stdout is written one block of lines per call, after every row of
    a query batch has been answered."""

    WORD = "1001101"

    @pytest.fixture
    def ixfile(self, capsys, tmp_path):
        wordfile = tmp_path / "word.txt"
        wordfile.write_text(self.WORD + "\n")
        ixfile = tmp_path / "word.pnfix"
        run(capsys, "index", "build", str(wordfile), "-o", str(ixfile))
        return ixfile

    def recorded(self, monkeypatch, *argv):
        recorder = Recorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        code = main(list(argv))
        monkeypatch.undo()
        return code, recorder

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_query_batch_writes_whole_blocks(self, monkeypatch, tmp_path, ixfile, fmt):
        rng = random.Random(7)
        rows = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(2 * _BLOCK_LINES + 5)]
        queries = tmp_path / "queries.csv"
        queries.write_text("ones,zeros\n" + "".join(f"{o},{z}\n" for o, z in rows))
        code, recorder = self.recorded(monkeypatch, "--format", fmt, "index", "query-batch", str(ixfile), str(queries))
        ix = build_index(parse_word(self.WORD))
        answers = ["yes" if ix.query(ones=o, zeros=z) else "no" for o, z in rows]
        if fmt == "text":
            expected = [f"{a}\n" for a in answers]
        else:
            expected = ["ones,zeros,answer\n"] + [f"{o},{z},{a}\n" for (o, z), a in zip(rows, answers)]
        assert code == 0
        assert recorder.getvalue() == "".join(expected)
        assert recorder.writes == math.ceil(len(expected) / _BLOCK_LINES) == 3

    def test_bad_row_past_first_block_writes_nothing(self, monkeypatch, tmp_path, ixfile):
        queries = tmp_path / "queries.csv"
        queries.write_text("1,1\n" * (_BLOCK_LINES + 10) + "1,x\n")
        code, recorder = self.recorded(monkeypatch, "index", "query-batch", str(ixfile), str(queries))
        assert code == 2
        assert recorder.getvalue() == "" and recorder.writes == 0


class TestEnum:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "enum", "4")
        assert code == 0
        assert out.split() == ["1111", "1110", "1101", "1100", "1010", "1001", "1000", "0000"]

    def test_listing_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "enum", "3")
        assert code == 0
        assert json.loads(out) == [{"word": w} for w in ["111", "110", "101", "100", "000"]]

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enum", "16", "--count-only")
        assert code == 0 and out == "7568\n"

    def test_density(self, capsys):
        code, out, _ = run(capsys, "enum", "4", "--density", "3")
        assert code == 0 and out == "2\n"

    def test_ecrit(self, capsys):
        code, out, _ = run(capsys, "enum", "1", "--ecrit")
        assert code == 0 and out == "1\n"

    def test_classes(self, capsys):
        code, out, _ = run(capsys, "enum", "4", "--classes")
        assert code == 0
        assert out.splitlines()[0] == "8 classes, max size 4"

    def test_ratios_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "enum", "--ratios", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,growth_ratio,ecrit_ratio,ecrit_ratio_scaled"
        assert lines[1].startswith("1,2.0,0.5,")

    def test_needs_length(self, capsys):
        code, out, err = run(capsys, "enum")
        assert code == 2 and out == ""
        assert err == "error: enum needs a length N (or --ratios N)\n"

    def test_ratios_rejects_n(self, capsys):
        code, _, err = run(capsys, "enum", "4", "--ratios", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "modes",
        [
            ("--count-only", "--classes"),
            ("--count-only", "--ecrit"),
            ("--density", "3", "--classes"),
            ("--ecrit", "--ratios", "3"),
        ],
    )
    def test_modes_are_exclusive(self, capsys, modes):
        with pytest.raises(SystemExit) as exc:
            main(["enum", "8", *modes])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_members_needs_classes(self, capsys):
        code, out, err = run(capsys, "enum", "4", "--members")
        assert code == 2 and out == ""
        assert "--classes" in err

    def test_classes_refuse_bit_zero(self, capsys):
        code, out, err = run(capsys, "enum", "4", "--classes", "--bit", "0")
        assert code == 2 and out == ""
        assert "--bit 0" in err

    LENGTH4_CLASSES = [
        ("1111", 1, "1111"),
        ("1110", 2, "1110 0111"),
        ("1101", 2, "1101 1011"),
        ("1100", 3, "1100 0110 0011"),
        ("1010", 2, "1010 0101"),
        ("1001", 1, "1001"),
        ("1000", 4, "1000 0100 0010 0001"),
        ("0000", 1, "0000"),
    ]

    def test_members_text(self, capsys):
        code, out, _ = run(capsys, "enum", "4", "--classes", "--members")
        assert code == 0
        assert out.splitlines() == ["8 classes, max size 4"] + [
            f"{rep}  {size}  {members}" for rep, size, members in self.LENGTH4_CLASSES
        ]

    def test_members_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "enum", "4", "--classes", "--members")
        assert code == 0
        assert out.splitlines() == ["representative,size,members"] + [
            f"{rep},{size},{members}" for rep, size, members in self.LENGTH4_CLASSES
        ]

    def test_members_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "enum", "4", "--classes", "--members")
        assert code == 0
        assert json.loads(out) == [
            {"representative": rep, "size": size, "members": members}
            for rep, size, members in self.LENGTH4_CLASSES
        ]

    def test_scale_guard_exit_3(self, capsys):
        code, _, err = run(capsys, "enum", "31", "--count-only")
        assert code == 3
        assert "refused" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "enum", "7")
        _, second, _ = run(capsys, "enum", "7")
        assert first == second


class TestRegion:
    def test_identical_paths_for_all_ones(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "region", "1111")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,word,pnf1,pnf0"
        for k, line in enumerate(lines[1:]):
            assert line == f"{k},{k},{k},{k}"

    def test_envelopes_bound_an_inner_point(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "region", "1010011011000111001011")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        k, word_h, top, bottom = (int(v) for v in rows[11])
        # the factor with 5 ones and 6 zeros sits at height -1 at abscissa 11
        assert k == 11
        assert bottom <= 2 * 5 - 11 <= top
        # envelopes really envelop the word's own path everywhere
        for row in rows:
            _, word_h, top, bottom = (int(v) for v in row)
            assert bottom <= word_h <= top


class TestMisc:
    def test_parikh(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "parikh", "011")
        assert code == 0
        assert out.splitlines() == [
            "zeros,ones",
            "0,0",
            "0,1",
            "0,2",
            "1,0",
            "1,1",
            "1,2",
        ]

    def test_parikh_guard(self, capsys):
        code, _, _ = run(capsys, "parikh", "1" * 25)
        assert code == 3

    def test_empty_word_accepted(self, capsys):
        code, out, _ = run(capsys, "pnf", "")
        assert code == 0 and out == "PNF1=\n"

    def test_gf(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "gf", "4", "10")
        assert code == 0
        coeffs = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert coeffs == [0, 0, 0, 0, 1, 3, 6, 11, 18, 27, 39]

    def test_gf_negative_order_is_usage_error(self, capsys):
        code, out, err = run(capsys, "gf", "2", "-1")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_gf_order_guard_not_lifted(self, capsys):
        code, out, _ = run(capsys, "gf", "2", "201", "--unsafe-large")
        assert code == 3 and out == ""

    def test_ext_bijection(self, capsys):
        code, out, _ = run(capsys, "ext", "10", "7", "4")
        assert code == 0 and out == "6\n"

    def test_ext_requires_normal_word(self, capsys):
        code, _, err = run(capsys, "ext", "10110", "3")
        assert code == 1

    def test_ext_unsafe_large_lifts_its_contract_check(self, capsys, tmp_path):
        # 01^100000 is not normal, so the lifted profile costs O(n) and the
        # walk never starts: the contract, not the profile guard, refuses it.
        path = tmp_path / "w.txt"
        path.write_text("0" + "1" * PROFILE_LENGTH_GUARD + "\n")
        code, out, err = run(capsys, "ext", "--file", str(path), "1")
        assert (code, out) == (3, "") and "100001 refused" in err
        code, out, err = run(capsys, "ext", "--file", str(path), "1", "--unsafe-large")
        assert (code, out, err) == (1, "", "error: ext_count requires a 1-prefix-normal base word\n")

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds", "16")
        assert code == 0
        assert out.strip().splitlines()[-1] == "upper bound holds for all computed n >= 14"

    def test_prenecklaces(self, capsys):
        code, out, _ = run(capsys, "prenecklaces", "8")
        assert code == 0 and out == "71\n"

    def test_prenecklaces_long_unsafe(self, capsys):
        code, out, _ = run(capsys, "prenecklaces", "1200", "--unsafe-large")
        assert code == 0
        assert len(out.splitlines()) == 1 and int(out) > 0

    def test_unknown_flag_is_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enum", "4", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_prenecklaces_past_the_digit_limit(self, capsys, fmt):
        # 4,512 digits, past the interpreter's default int-to-str limit of
        # 4,300; the limit is back in place once main returns.
        before = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "prenecklaces", "15000", "--unsafe-large", "--format", fmt)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == before
        assert (code, err) == (0, "")
        (digits,) = re.findall(r"\d{6,}", out)
        expected = count_prenecklaces(15_000, unsafe_large=True)
        assert len(digits) == 4_512 and Decimal(digits) == expected

    def test_unsafe_large_override(self, capsys):
        code, out, _ = run(capsys, "prenecklaces", "10001", "--unsafe-large")
        assert code == 0
        assert int(out) > 0


# Pinned CLI output of two commands that render records; the JSON form
# is built below from the same cells.
RATIOS_6_CSV = """\
n,growth_ratio,ecrit_ratio,ecrit_ratio_scaled
1,2.0,0.5,nan
2,1.5,0.3333333333333333,0.9617966939259756
3,1.6666666666666667,0.4,1.0922870719522049
4,1.6,0.25,0.7213475204444817
5,1.75,0.35714285714285715,1.1095266688564498
6,1.6428571428571428,0.21739130434782608,0.7279703824581486
"""

BOUNDS_8_CSV = """\
n,pnw,upper_bound,upper_holds,lower_bound,lower_holds
1,2,4.0,true,2.0,true
2,3,4.0,true,0.07928247168814882,true
3,5,5.333333333333334,true,0.0189418123758974,true
4,8,8.0,true,0.006285710316982119,true
5,14,12.8,false,0.002525580954020832,true
6,23,21.333333333333336,false,0.0011589381798955943,true
7,41,36.571428571428584,false,0.0005879585414653282,true
8,70,64.0,false,0.00032305827673565087,true
"""


def json_from_csv(text):
    """The JSON output that mirrors a CSV output cell for cell."""

    def value(cell):
        if cell in ("true", "false"):
            return cell == "true"
        if cell == "nan":
            return None
        return float(cell) if "." in cell else int(cell)

    header, *lines = text.splitlines()
    fields = header.split(",")
    return json.dumps([dict(zip(fields, map(value, line.split(",")))) for line in lines]) + "\n"


class TestRecordOutput:
    @pytest.mark.parametrize(
        "argv, text",
        [
            (("parikh", "011"), "0  0\n0  1\n0  2\n1  0\n1  1\n1  2\n"),
            (("gf", "2", "4"), "0  0\n1  0\n2  1\n3  2\n4  3\n"),
            (
                ("enum", "--ratios", "3"),
                "1  2.0  0.5  nan\n"
                "2  1.5  0.3333333333333333  0.9617966939259756\n"
                "3  1.6666666666666667  0.4  1.0922870719522049\n",
            ),
        ],
    )
    def test_text_rows_pinned(self, capsys, argv, text):
        # Records without their own text rendering: cells joined by two spaces.
        assert run(capsys, *argv) == (0, text, "")

    @pytest.mark.parametrize(
        "argv, csv", [(("enum", "--ratios", "6"), RATIOS_6_CSV), (("bounds", "8"), BOUNDS_8_CSV)]
    )
    def test_csv_and_json_pinned(self, capsys, argv, csv):
        assert run(capsys, "--format", "csv", *argv) == (0, csv, "")
        assert run(capsys, "--format", "json", *argv) == (0, json_from_csv(csv), "")

    def test_json_has_no_nan(self, capsys):
        # NaN, Infinity and -Infinity are not JSON; strict parsers refuse them.
        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        code, out, err = run(capsys, "--format", "json", "enum", "--ratios", "2")
        assert code == 0 and err == ""
        assert json.loads(out, parse_constant=refuse)[0]["ecrit_ratio_scaled"] is None


class TestStartup:
    def _python(self, *args):
        env = dict(os.environ)
        src = str(Path(pnfkit.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60, check=True
        ).stdout

    def test_cli_import_loads_no_unused_stdlib(self):
        # Every command pays for what importing the CLI loads; no command
        # starts a process pool, and json is loaded only by JSON output and
        # query-batch.
        added = self._python(
            "-c",
            "import sys; bare = set(sys.modules); import pnfkit.cli; "
            "print(*sorted(set(sys.modules) - bare))",
        ).split()
        assert "pnfkit.cli" in added
        unused = {"concurrent.futures", "multiprocessing", "dataclasses", "json"}
        assert unused.isdisjoint(added)

    def test_module_entry_point(self):
        assert self._python("-m", "pnfkit.cli", "pnf", "1") == "PNF1=1\n"

    @pytest.mark.parametrize("n, lines_read", [(20, 1), (8, 0)])
    def test_reader_closing_stdout_early_is_not_an_error(self, n, lines_read):
        # enum 20 writes about 1.8 MB, far past a pipe's buffer, so it is still
        # writing when the reader closes after one line. enum 8 fits in the
        # stream's own buffer, so only its flush meets the closed pipe.
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        src = str(Path(pnfkit.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "pnfkit.cli", "enum", str(n)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(lines_read):
            assert proc.stdout.readline() == b"1" * n + b"\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""
