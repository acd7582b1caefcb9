"""Command line front end.

Every capability of the library is reachable from here; output is
plain text by default, CSV or JSON on request (the JSON rows mirror
the CSV fields one-to-one). Exit codes: 0 success, 1 domain violation,
2 usage or parse error, 3 scale-guard refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import combinatorics, jumbled, lyndon, normality, pnf
from .bitword import BinaryWord, parse_word
from .errors import PnfkitError, ScaleError, WordParseError

WORD_ARG_CAP = 4096

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_SCALE = 3


def _read_word(args: argparse.Namespace) -> BinaryWord:
    """Resolve the word from exactly one input source."""
    given = sum((args.word is not None, args.file is not None, bool(args.stdin)))
    if given != 1:
        raise ValueError("provide exactly one word source: WORD, --file or --stdin")
    if args.word is not None:
        if len(args.word) > WORD_ARG_CAP:
            raise ValueError(
                f"word argument longer than {WORD_ARG_CAP} symbols; use --file or --stdin"
            )
        text = args.word
    elif args.file is not None:
        with open(args.file, "r", encoding="ascii") as fp:
            text = fp.read().rstrip("\n")
    else:
        text = sys.stdin.read().rstrip("\n")
    return parse_word(text)


def _add_word_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("word", nargs="?", default=None, help="the word itself (up to 4096 symbols)")
    sub.add_argument("--file", help="read the word from a file (newline-terminated)")
    sub.add_argument("--stdin", action="store_true", help="read the word from standard input")


def _emit(args, fields: list[str], rows: list[tuple], text_lines: list[str] | None = None) -> None:
    if args.format == "csv":
        print(",".join(fields))
        for row in rows:
            print(",".join(_csv_cell(v) for v in row))
    elif args.format == "json":
        print(json.dumps([dict(zip(fields, row)) for row in rows]))
    else:
        if text_lines is None:
            text_lines = ["  ".join(_csv_cell(v) for v in row) for row in rows]
        for line in text_lines:
            print(line)


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
    w = _read_word(args)
    # The characterizations decide 1-normality; for bit 0 run them on
    # the complement.
    target = w if args.bit == "1" else w.complement()
    if args.method == "all":
        verdicts = normality.all_deciders(target)
        rows = [(w.to01(), name, ok) for name, ok in verdicts.items()]
        lines = [f"{name}: {'normal' if ok else 'not normal'}" for name, ok in verdicts.items()]
        _emit(args, ["word", "method", "normal"], rows, text_lines=lines)
        if len(set(verdicts.values())) > 1:
            print("error: the deciders disagree; this is a bug", file=sys.stderr)
            return EXIT_DOMAIN
        return EXIT_OK
    ok = normality.DECIDERS[args.method](target)
    _emit(
        args,
        ["word", "method", "normal"],
        [(w.to01(), args.method, ok)],
        text_lines=["normal" if ok else "not normal"],
    )
    return EXIT_OK


def _cmd_index(args) -> int:
    if args.index_cmd == "build":
        with open(args.wordfile, "r", encoding="ascii") as fp:
            w = parse_word(fp.read().rstrip("\n"))
        ix = jumbled.build_index(w, unsafe_large=args.unsafe_large)
        with open(args.output, "wb") as out:
            jumbled.dump_index(ix, out)
        print(f"indexed {len(w)} symbols -> {args.output}")
        return EXIT_OK
    with open(args.ixfile, "rb") as fp:
        ix = jumbled.load_index(fp)
    if args.index_cmd == "query":
        answer = ix.query(ones=args.ones, zeros=args.zeros)
        _emit(
            args,
            ["ones", "zeros", "answer"],
            [(args.ones, args.zeros, "yes" if answer else "no")],
            text_lines=["yes" if answer else "no"],
        )
        return EXIT_OK
    # query-batch: one "ones,zeros" pair per row, optional header
    rows = []
    with open(args.csvfile, "r", encoding="ascii") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line or (lineno == 1 and line.lower().replace(" ", "") == "ones,zeros"):
                continue
            try:
                ones_s, zeros_s = line.split(",")
                ones, zeros = int(ones_s), int(zeros_s)
            except ValueError:
                raise ValueError(f"{args.csvfile}:{lineno}: expected 'ones,zeros', got {line!r}")
            if ones < 0 or zeros < 0:
                raise ValueError(
                    f"{args.csvfile}:{lineno}: ones and zeros must be non-negative, got {line!r}"
                )
            answer = ix.query(ones=ones, zeros=zeros)
            rows.append((ones, zeros, "yes" if answer else "no"))
    _emit(args, ["ones", "zeros", "answer"], rows, text_lines=[r[2] for r in rows])
    return EXIT_OK


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
        _emit(
            args,
            ["n", "growth_ratio", "ecrit_ratio", "ecrit_ratio_scaled"],
            [(r.n, r.growth_ratio, r.ecrit_ratio, r.ecrit_ratio_scaled) for r in rows],
        )
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
        rows: list[tuple] = [(c.representative.to01(), c.size) for c in stats.classes]
        if args.members:
            fields.append("members")
            rows = [
                row + (" ".join(m.to01() for m in c.members),)
                for row, c in zip(rows, stats.classes)
            ]
        lines = [f"{stats.class_count} classes, max size {stats.max_class_size}"]
        lines += ["  ".join(str(v) for v in row) for row in rows]
        _emit(args, fields, rows, text_lines=lines)
    else:
        words = [w.to01() for w in combinatorics.enumerate_pn(n, bit, unsafe_large=unsafe)]
        _emit(args, ["word"], [(w,) for w in words], text_lines=words)
    return EXIT_OK


def _cmd_parikh(args) -> int:
    w = _read_word(args)
    vectors = sorted(pnf.parikh_set(w, unsafe_large=args.unsafe_large))
    _emit(args, ["zeros", "ones"], [(v.zeros, v.ones) for v in vectors])
    return EXIT_OK


def _cmd_region(args) -> int:
    w = _read_word(args)
    pair = pnf.pnf_pair(w, unsafe_large=args.unsafe_large)
    paths = [w.prefix_counts(1), pair.pnf1.prefix_counts(1), pair.pnf0.prefix_counts(1)]
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
    d_cell = args.density if args.density is not None else ""
    _emit(
        args,
        ["word", "m", "density", "count"],
        [(w.to01(), args.m, d_cell, count)],
        text_lines=[str(count)],
    )
    return EXIT_OK


def _cmd_bounds(args) -> int:
    rows = combinatorics.bound_check(args.n, unsafe_large=args.unsafe_large)
    threshold = combinatorics.upper_bound_threshold(rows)
    data = [
        (r.n, r.pnw, r.upper_bound, r.upper_holds, r.lower_bound, r.lower_holds) for r in rows
    ]
    lines = [
        f"n={r.n} pnw={r.pnw} upper={r.upper_bound:.6g} "
        f"({'holds' if r.upper_holds else 'fails'}) lower={r.lower_bound:.6g} "
        f"({'holds' if r.lower_holds else 'fails'})"
        for r in rows
    ]
    if args.format == "text":
        if threshold is None:
            lines.append("upper bound does not hold at the end of the computed range")
        else:
            lines.append(f"upper bound holds for all computed n >= {threshold}")
    _emit(
        args,
        ["n", "pnw", "upper_bound", "upper_holds", "lower_bound", "lower_holds"],
        data,
        text_lines=lines,
    )
    return EXIT_OK


def _cmd_prenecklaces(args) -> int:
    value = lyndon.count_prenecklaces(args.n, unsafe_large=args.unsafe_large)
    _emit(args, ["n", "prenecklaces"], [(args.n, value)], text_lines=[str(value)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnfkit",
        description="Prefix normal forms, jumbled-pattern-matching index, and enumeration lab",
    )
    parser.add_argument(
        "--format", choices=["text", "csv", "json"], default="text", help="output format"
    )
    parser.add_argument(
        "--unsafe-large",
        action="store_true",
        default=False,
        help="override the desk-scale guards (quadratic/exhaustive work ahead)",
    )
    # The same flags are accepted after the subcommand; SUPPRESS keeps a
    # value parsed at the top level from being clobbered by a default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=["text", "csv", "json"], default=argparse.SUPPRESS, help="output format"
    )
    common.add_argument(
        "--unsafe-large", action="store_true", default=argparse.SUPPRESS,
        help="override the desk-scale guards",
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
    b = isub.add_parser("build", help="index a word file")
    b.add_argument("wordfile")
    b.add_argument("-o", "--output", required=True)
    q = isub.add_parser("query", help="ask whether (ones, zeros) occurs as a factor")
    q.add_argument("ixfile")
    q.add_argument("--ones", type=int, required=True)
    q.add_argument("--zeros", type=int, required=True)
    qb = isub.add_parser("query-batch", help="answer one query per CSV row")
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
    try:
        return args.fn(args)
    except (PnfkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ScaleError):
            return EXIT_SCALE
        if isinstance(exc, PnfkitError) and not isinstance(exc, WordParseError):
            return EXIT_DOMAIN
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
