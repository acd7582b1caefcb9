import json
import struct

import pytest

from pnfkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPnf:
    def test_both(self, capsys):
        code, out, _ = run(capsys, "pnf", "1001101", "--bit", "both")
        assert code == 0
        assert out == "PNF1=1101001\nPNF0=0011011\n"

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

    def test_long_argument_capped(self, capsys):
        code, _, err = run(capsys, "pnf", "1" * 4097)
        assert code == 2
        assert "4096" in err

    def test_word_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1001101\n"))
        code, out, _ = run(capsys, "pnf", "--stdin")
        assert code == 0 and out == "PNF1=1101001\n"


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


class TestIndex:
    def test_build_query_roundtrip(self, capsys, tmp_path):
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        code, out, _ = run(capsys, "index", "build", str(wordfile), "-o", str(ixfile))
        assert code == 0
        assert ixfile.read_bytes().startswith(b"PNFIX1")

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

    @pytest.mark.parametrize("row", ["-1,2", "2,-1"])
    def test_query_batch_negative_count_names_row(self, capsys, tmp_path, row):
        wordfile = tmp_path / "word.txt"
        wordfile.write_text("1001101\n")
        ixfile = tmp_path / "word.pnfix"
        run(capsys, "index", "build", str(wordfile), "-o", str(ixfile))
        queries = tmp_path / "queries.csv"
        queries.write_text(f"3,2\n{row}\n")
        code, out, err = run(capsys, "index", "query-batch", str(ixfile), str(queries))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {queries}:2: ") and err.count("\n") == 1

    def test_corrupt_index_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.pnfix"
        bad.write_bytes(b"NOTMAGIC")
        code, _, err = run(capsys, "index", "query", str(bad), "--ones", "1", "--zeros", "1")
        assert code == 1
        assert "magic" in err

    @pytest.mark.parametrize("n", [2**63, 2**64 - 1])
    def test_hostile_length_header_rejected(self, capsys, tmp_path, n):
        # A 22-byte file whose header claims a huge word: rejected from
        # the file size, before anything sized by n is read or allocated.
        bad = tmp_path / "hostile.pnfix"
        bad.write_bytes(b"PNFIX1" + struct.pack("<Q", n) + bytes(8))
        code, out, err = run(capsys, "index", "query", str(bad), "--ones", "1", "--zeros", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


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

    def test_unsafe_large_override(self, capsys):
        code, out, _ = run(capsys, "prenecklaces", "25", "--unsafe-large")
        assert code == 0
        assert int(out) > 0
