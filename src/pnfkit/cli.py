"""Command line front end.

Every capability of the library is reachable from here; output is
plain text by default, CSV or JSON on request (the JSON rows mirror
the CSV fields one-to-one). Exit codes: 0 success, 1 domain violation,
2 usage or parse error, 3 scale-guard refusal.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

from . import combinatorics, jumbled, lyndon, normality, pnf
from .bitword import PROFILE_LENGTH_GUARD, BinaryWord, parse_word
from .errors import PnfkitError, ScaleError, WordParseError, check_scale

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_SCALE = 3


def _read_word(args: argparse.Namespace, what="word length", limit=PROFILE_LENGTH_GUARD) -> BinaryWord:
    """Resolve the word from exactly one input source. From every source, a
    word longer than limit (the guard of the command's own work) is refused as
    what before it is parsed, unless unsafe_large."""
    given = sum((args.word is not None, args.file is not None, bool(args.stdin)))
    if given != 1:
        raise ValueError("provide exactly one word source: WORD, --file or --stdin")
    if args.word is not None:
        check_scale(what, len(args.word), limit, args.unsafe_large)
        return parse_word(args.word)
    if args.file is not None:
        return _read_word_file(args.file, args.unsafe_large, what, limit)
    return _read_word_text(sys.stdin, args.unsafe_large, what, limit)


def _read_word_file(path: str, unsafe_large: bool, what="word length", limit=PROFILE_LENGTH_GUARD) -> BinaryWord:
    # A non-ASCII byte decodes to one surrogate, which parse_word rejects.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fp:
        return _read_word_text(fp, unsafe_large, what, limit)


# Characters read at a time while counting the rest of an oversized word.
_COUNT_CHUNK = 1 << 16


def _read_word_text(fp, unsafe_large: bool, what="word length", limit=PROFILE_LENGTH_GUARD) -> BinaryWord:
    """The newline-terminated word on fp. Without unsafe_large at most limit
    plus two characters are held: a longer word is refused by its length
    before any of it is parsed. The characters past the held ones are counted
    chunk by chunk, up to and including the first one other than 0, 1 or a
    newline, and none are counted if a held character is already such a one,
    so endless input that is not a word is refused too."""
    cap = None if unsafe_large else limit + 2
    text = fp.read(cap)
    word = text.rstrip("\n")
    n = len(word)
    if len(text) == cap and not text.lstrip("01\n"):
        trailing = len(text) - n
        while chunk := fp.read(_COUNT_CHUNK):
            if stray := chunk.lstrip("01\n"):
                n += trailing + len(chunk) - len(stray) + 1
                break
            body = chunk.rstrip("\n")
            if body:
                n += trailing + len(body)
                trailing = 0
            trailing += len(chunk) - len(body)
    check_scale(what, n, limit, unsafe_large)
    return parse_word(word)


def _add_word_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("word", nargs="?", default=None, help="the word itself")
    sub.add_argument("--file", help="read the word from a file (newline-terminated)")
    sub.add_argument("--stdin", action="store_true", help="read the word from standard input")


# Lines per stdout write: a block costs one write call, not one per line.
_BLOCK_LINES = 4096


def _emit(args, fields: list[str], rows: Iterable[tuple], text_lines: Iterable[str] | None = None) -> None:
    """The one writer of stdout. rows and text_lines may be generators: only the
    requested format is rendered, as it is written, one write per _BLOCK_LINES
    lines (JSON: rows, then the closing bracket), so an error raised while the
    first block is rendered leaves stdout empty."""
    if args.format == "json":
        chunks = _json_chunks(fields, rows)
    else:
        if args.format == "csv":
            lines = chain([",".join(fields)], (",".join(map(_csv_cell, row)) for row in rows))
        elif text_lines is None:
            lines = ("  ".join(map(_csv_cell, row)) for row in rows)
        else:
            lines = text_lines
        chunks = ("\n".join(block) + "\n" for block in _blocks(lines))
    # A lifted count may pass the interpreter's int-to-str digit limit (absent
    # before Python 3.10.7). It is lifted while the output is rendered, and
    # only then: the command has parsed all of its input by now.
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    set_digits = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_digits(0)
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        # Flushed here, a reader that closed early is met inside main.
        sys.stdout.flush()
    finally:
        set_digits(digits)


def _blocks(items: Iterable) -> Iterator[list]:
    items = iter(items)
    while block := list(islice(items, _BLOCK_LINES)):
        yield block


def _json_chunks(fields: list[str], rows: Iterable[tuple]) -> Iterator[str]:
    """json.dumps of the list of row objects, one chunk per block of rows.
    JSON has no NaN: a NaN cell, nan in CSV, is written as null."""
    import json  # only JSON output loads it
    from math import isnan

    def cell(value):
        return None if isinstance(value, float) and isnan(value) else value

    sep = "["
    for block in _blocks(dict(zip(fields, map(cell, row))) for row in rows):
        yield sep + json.dumps(block, allow_nan=False)[1:-1]
        sep = ", "
    yield "[]\n" if sep == "[" else "]\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# --- subcommands -----------------------------------------------------------


def _cmd_pnf(args) -> int:
    w = _read_word(args)
    unsafe = args.unsafe_large
    if args.bit == "both":
        pair = pnf.pnf_pair(w, unsafe_large=unsafe)
        forms = {"pnf1": pair.pnf1, "pnf0": pair.pnf0}
    elif args.bit == "1":
        forms = {"pnf1": pnf.pnf1(w, unsafe_large=unsafe)}
    else:
        forms = {"pnf0": pnf.pnf0(w, unsafe_large=unsafe)}
    texts = {name: u.to01() for name, u in forms.items()}
    _emit(
        args,
        ["word", *texts],
        [(w.to01(), *texts.values())],
        text_lines=[f"{name.upper()}={text}" for name, text in texts.items()],
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    guard = () if args.method == "def" else ("characterisation length", normality.CHARACTERISATION_GUARD)
    w = _read_word(args, *guard)
    unsafe = args.unsafe_large
    deciders = {**normality.DECIDERS, "def": partial(normality.is_prefix_normal, unsafe_large=unsafe)}
    # The characterizations decide 1-normality; for bit 0 run them on
    # the complement.
    target = w if args.bit == "1" else w.complement()
    if args.method == "all":
        verdicts = {name: decide(target) for name, decide in deciders.items()}
        rows = [(w.to01(), name, ok) for name, ok in verdicts.items()]
        lines = [f"{name}: {'normal' if ok else 'not normal'}" for name, ok in verdicts.items()]
        _emit(args, ["word", "method", "normal"], rows, text_lines=lines)
        if len(set(verdicts.values())) > 1:
            print("error: the deciders disagree; this is a bug", file=sys.stderr)
            return EXIT_DOMAIN
        return EXIT_OK
    ok = deciders[args.method](target)
    _emit(
        args,
        ["word", "method", "normal"],
        [(w.to01(), args.method, ok)],
        text_lines=["normal" if ok else "not normal"],
    )
    return EXIT_OK


# A query-batch CSV is read _CSV_BLOCK characters at a time. A row that
# reaches _ROW_CAP characters is malformed wherever it starts, and the file is
# read at most one block past that. An error quotes at most the first
# _ROW_ECHO characters of a bad row. A block of plain rows is answered by one
# JumbledIndex.query_many call, any other by the row rules of _answer_rows.
_CSV_BLOCK = 1 << 16
_ROW_CAP = 64 * 1024
_ROW_ECHO = 80
_COUNT_CHARS = str.maketrans("", "", "0123456789 ")


def _bad_row(path: str, lineno: int, line: str) -> ValueError:
    echo = repr(line) if len(line) <= _ROW_ECHO else f"{line[:_ROW_ECHO]!r}..."
    return ValueError(f"{path}:{lineno}: expected 'ones,zeros' of counts >= 0, got {echo}")


def _cmd_index(args) -> int:
    if args.index_cmd == "build":
        w = _read_word_file(args.wordfile, args.unsafe_large)
        ix = jumbled.build_index(w, unsafe_large=args.unsafe_large)
        with open(args.output, "wb") as out:
            jumbled.dump_index(ix, out)
        line = f"indexed {len(w)} symbols -> {args.output}"
        _emit(args, ["n", "output"], [(len(w), args.output)], text_lines=[line])
        return EXIT_OK
    with open(args.ixfile, "rb") as fp:
        ix = jumbled.load_index(fp)
    if args.index_cmd == "query":
        answer = "yes" if ix.query(ones=args.ones, zeros=args.zeros) else "no"
        _emit(args, ["ones", "zeros", "answer"], [(args.ones, args.zeros, answer)], text_lines=[answer])
        return EXIT_OK
    # query-batch: one "ones,zeros" pair per row, optional header. Every
    # row is answered before any is written, so a bad row leaves stdout empty.
    columns = ones, zeros, answers = [], [], []
    # Not UTF-8, under which int() would take digits such as '３'.
    with open(args.csvfile, "r", encoding="ascii", errors="surrogateescape") as fp:
        # The header candidate takes the row rules: the cap, then the header.
        _answer_rows(ix, args.csvfile, [fp.readline(_ROW_CAP).removesuffix("\n")], 1, columns)
        lineno, tail = 2, ""
        for block in iter(partial(fp.read, _CSV_BLOCK), ""):
            *rows, tail = (tail + block).split("\n")
            _answer_block(ix, args.csvfile, rows, lineno, columns)
            lineno += len(rows)
            if len(tail) >= _ROW_CAP:
                raise _bad_row(args.csvfile, lineno, tail)
        _answer_rows(ix, args.csvfile, [tail], lineno, columns)
    word = ("no", "yes").__getitem__
    rows = zip(ones, zeros, map(word, answers))
    _emit(args, ["ones", "zeros", "answer"], rows, text_lines=map(word, answers))
    return EXIT_OK


def _answer_block(ix, path: str, rows: list[str], lineno: int, columns: tuple[list, list, list]) -> None:
    """Answer rows, the lines of the CSV from lineno on, onto the columns
    (ones, zeros, answers). Rows of digits and spaces around one comma, each
    under the cap, are parsed by one json.loads: under that shape JSON's
    integers are a subset of what int() takes, with the same values, and what
    JSON refuses (leading zeros, inner spaces, empty fields, the digit limit)
    goes to _answer_rows. So the row rules would give the same answers."""
    import json  # only query-batch and JSON output load it

    text = "\n".join(rows)
    if text.translate(_COUNT_CHARS) == ",\n" * (len(rows) - 1) + "," and max(map(len, rows)) < _ROW_CAP:
        try:
            counts = json.loads("[" + text.replace("\n", ",") + "]")
        except ValueError:
            pass
        else:
            ones, zeros = counts[::2], counts[1::2]
            for column, part in zip(columns, (ones, zeros, ix.query_many(ones, zeros))):
                column += part
            return
    _answer_rows(ix, path, rows, lineno, columns)


def _answer_rows(ix, path: str, rows: list[str], lineno: int, columns: tuple[list, list, list]) -> None:
    """The row rules: answer each row, or raise _bad_row for the first bad one."""
    ones, zeros, answers = columns
    for lineno, line in enumerate(rows, start=lineno):
        if len(line) >= _ROW_CAP:
            raise _bad_row(path, lineno, line)
        line = line.strip()
        if not line or (lineno == 1 and line.lower().replace(" ", "") == "ones,zeros"):
            continue
        try:
            ones_s, zeros_s = line.split(",")
            o, z = int(ones_s), int(zeros_s)
            answer = ix.query(ones=o, zeros=z)
        except ValueError:
            raise _bad_row(path, lineno, line) from None
        ones.append(o)
        zeros.append(z)
        answers.append(answer)


def _cmd_enum(args) -> int:
    unsafe = args.unsafe_large
    if args.members and not args.classes:
        raise ValueError("--members lists class members; it needs --classes")
    if args.classes and args.bit == "0":
        raise ValueError("--classes groups words by their PNF1; --bit 0 does not apply")
    if args.ratios is not None:
        if args.n is not None:
            raise ValueError("--ratios replaces the length argument; drop N")
        rows = combinatorics.ratio_series(args.ratios, unsafe_large=unsafe)
        _emit(args, ["n", "growth_ratio", "ecrit_ratio", "ecrit_ratio_scaled"], rows)
        return EXIT_OK
    if args.n is None:
        raise ValueError("enum needs a length N (or --ratios N)")
    n = args.n
    bit = int(args.bit)
    if args.count_only:
        value = combinatorics.count_pnw(n, unsafe_large=unsafe)
        _emit(args, ["n", "pnw"], [(n, value)], text_lines=[str(value)])
    elif args.density is not None:
        value = combinatorics.count_pnw_density(n, args.density, unsafe_large=unsafe)
        _emit(args, ["n", "density", "count"], [(n, args.density, value)], text_lines=[str(value)])
    elif args.ecrit:
        value = combinatorics.count_ecrit(n, unsafe_large=unsafe)
        _emit(args, ["n", "ecrit"], [(n, value)], text_lines=[str(value)])
    elif args.classes:
        stats = combinatorics.class_statistics(
            n, include_listing=args.members, unsafe_large=unsafe
        )
        fields = ["representative", "size"]
        rows = ((c.representative.to01(), c.size) for c in stats.classes)
        if args.members:
            fields.append("members")
            rows = (
                (c.representative.to01(), c.size, " ".join(m.to01() for m in c.members))
                for c in stats.classes
            )
        header = f"{stats.class_count} classes, max size {stats.max_class_size}"
        lines = chain([header], ("  ".join(map(str, row)) for row in rows))
        _emit(args, fields, rows, text_lines=lines)
    else:
        words = map(BinaryWord.to01, combinatorics.enumerate_pn(n, bit, unsafe_large=unsafe))
        _emit(args, ["word"], zip(words), text_lines=words)
    return EXIT_OK


def _cmd_parikh(args) -> int:
    w = _read_word(args, "Parikh set length", pnf.PARIKH_SET_LENGTH_GUARD)
    vectors = sorted(pnf.parikh_set(w, unsafe_large=args.unsafe_large))
    _emit(args, ["zeros", "ones"], vectors)
    return EXIT_OK


def _cmd_region(args) -> int:
    w = _read_word(args)
    ix = jumbled.build_index(w, unsafe_large=args.unsafe_large)
    paths = [w.prefix_counts(1), ix.fmax, ix.fmin]
    rows = []
    for k in range(len(w) + 1):
        heights = [2 * p[k] - k for p in paths]
        rows.append((k, *heights))
    _emit(args, ["k", "word", "pnf1", "pnf0"], rows)
    return EXIT_OK


def _cmd_gf(args) -> int:
    coeffs = combinatorics.expand_gf(args.d, args.order)
    _emit(args, ["n", "coefficient"], list(enumerate(coeffs)))
    return EXIT_OK


def _cmd_ext(args) -> int:
    w = _read_word(args)
    count = combinatorics.ext_count(w, args.m, args.density, unsafe_large=args.unsafe_large)
    row = (w.to01(), args.m, "" if args.density is None else args.density, count)
    _emit(args, ["word", "m", "density", "count"], [row], text_lines=[str(count)])
    return EXIT_OK


def _cmd_bounds(args) -> int:
    rows = combinatorics.bound_check(args.n, unsafe_large=args.unsafe_large)
    threshold = combinatorics.upper_bound_threshold(rows)
    lines = [
        f"n={r.n} pnw={r.pnw} upper={r.upper_bound:.6g} "
        f"({'holds' if r.upper_holds else 'fails'}) lower={r.lower_bound:.6g} "
        f"({'holds' if r.lower_holds else 'fails'})"
        for r in rows
    ]
    if threshold is None:
        lines.append("upper bound does not hold at the end of the computed range")
    else:
        lines.append(f"upper bound holds for all computed n >= {threshold}")
    fields = ["n", "pnw", "upper_bound", "upper_holds", "lower_bound", "lower_holds"]
    _emit(args, fields, rows, text_lines=lines)
    return EXIT_OK


def _cmd_prenecklaces(args) -> int:
    value = lyndon.count_prenecklaces(args.n, unsafe_large=args.unsafe_large)
    _emit(args, ["n", "prenecklaces"], [(args.n, value)], text_lines=map(str, [value]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # Accepted before the subcommand and after its arguments (the later wins):
    # SUPPRESS keeps an absent flag from clobbering one; main fills defaults.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "csv", "json"], default=argparse.SUPPRESS, help="output format")
    common.add_argument(
        "--unsafe-large", action="store_true", default=argparse.SUPPRESS,
        help="override the desk-scale guards (quadratic/exhaustive work ahead)",
    )
    parser = argparse.ArgumentParser(
        prog="pnfkit",
        description="Prefix normal forms, jumbled-pattern-matching index, and enumeration lab",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("pnf", help="print the prefix normal form(s) of a word")
    _add_word_source(p)
    p.add_argument("--bit", choices=["0", "1", "both"], default="1")
    p.set_defaults(fn=_cmd_pnf)

    p = add_parser("check", help="decide prefix normality")
    _add_word_source(p)
    p.add_argument("--bit", choices=["0", "1"], default="1")
    p.add_argument(
        "--method",
        choices=[*normality.DECIDERS, "all"],
        default="def",
        help="decision route; 'all' runs the five routes and verifies agreement",
    )
    p.set_defaults(fn=_cmd_check)

    p = add_parser("index", help="build or query a jumbled-matching index")
    isub = p.add_subparsers(dest="index_cmd", required=True)
    b = isub.add_parser("build", parents=[common], help="index a word file")
    b.add_argument("wordfile")
    b.add_argument("-o", "--output", required=True)
    q = isub.add_parser("query", parents=[common], help="ask whether (ones, zeros) occurs as a factor")
    q.add_argument("ixfile")
    q.add_argument("--ones", type=int, required=True)
    q.add_argument("--zeros", type=int, required=True)
    qb = isub.add_parser("query-batch", parents=[common], help="answer one query per CSV row")
    qb.add_argument("ixfile")
    qb.add_argument("csvfile")
    p.set_defaults(fn=_cmd_index)

    p = add_parser("enum", help="enumerate or count prefix normal words")
    p.add_argument("n", nargs="?", type=int, default=None)
    p.add_argument("--bit", choices=["0", "1"], default="1")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--count-only", action="store_true")
    mode.add_argument("--density", type=int, default=None, help="count words with this many of the chosen bit")
    mode.add_argument("--ecrit", action="store_true", help="count extension-critical words")
    mode.add_argument("--classes", action="store_true", help="prefix-equivalence class statistics")
    mode.add_argument("--ratios", type=int, default=None, metavar="N", help="growth/critical ratio series for 1..N")
    p.add_argument("--members", action="store_true", help="with --classes: list class members (n <= 8)")
    p.set_defaults(fn=_cmd_enum)

    p = add_parser("parikh", help="list the Parikh set of a word (factor compositions)")
    _add_word_source(p)
    p.set_defaults(fn=_cmd_parikh)

    p = add_parser("region", help="step paths of a word and its normal forms (for plotting)")
    _add_word_source(p)
    p.set_defaults(fn=_cmd_region)

    p = add_parser("gf", help="coefficients of the fixed-density generating function")
    p.add_argument("d", type=int)
    p.add_argument("order", type=int)
    p.set_defaults(fn=_cmd_gf)

    p = add_parser("ext", help="count prefix-normal extensions of a word")
    _add_word_source(p)
    p.add_argument("m", type=int, help="extension length")
    p.add_argument("density", type=int, nargs="?", default=None, help="total density filter")
    p.set_defaults(fn=_cmd_ext)

    p = add_parser("bounds", help="compare pnw(n) against the asymptotic bounds")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_bounds)

    p = add_parser("prenecklaces", help="count pre-necklaces of a given length")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_prenecklaces)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.format = getattr(args, "format", "text")
    args.unsafe_large = getattr(args, "unsafe_large", False)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # A reader that stops early (`| head`) is not an error. Stdout now
        # writes to devnull, so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (PnfkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ScaleError):
            return EXIT_SCALE
        if isinstance(exc, PnfkitError) and not isinstance(exc, WordParseError):
            return EXIT_DOMAIN
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
