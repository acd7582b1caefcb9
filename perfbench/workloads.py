"""The three workloads: seeded inputs, the CLI commands of one round,
and the check each command's stdout must pass.

forms     pnf --bit both on long words of three density classes; the
          quadratic profile kernel in bitword does nearly all the work.
index     index build (the write side), then query-batch over large
          CSVs (the read side: process start, index load, per-row
          queries).
enum-lab  the walk kernels in combinatorics: census count, density
          count, full listing and the class scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

FORMS_LENGTH = 6000
# Profile-kernel cost varies by up to 25% between words of one class
# (where the densest windows sit), so each class has several words.
WORDS_PER_CLASS = 3
SPARSE_P = 0.05
RUN_COUNT = 40
INDEX_LENGTH = 4096
QUERY_ROWS = 200_000
QUERY_FILES = 2
QUERY_EXTRA = 10  # k ranges over 0..n+10, so some rows ask for more than n symbols
CENSUS_N = 26
DENSITY = 12
LIST_N = 20
CLASS_N = 16
SAMPLE = 100  # listed words / class representatives re-checked per invocation

WORKLOADS = ("forms", "index", "enum-lab")
THREADS = "2"  # PNFKIT_THREADS: the census walk fans out to at most 2 workers

# The figure each operation reports by name: *_s is the median wall
# seconds per invocation, anything else the median items per second.
OP_METRICS = {
    "pnf_random": "pnf_random_s",
    "pnf_sparse": "pnf_sparse_s",
    "pnf_runs": "pnf_runs_s",
    "index_build": "index_build_s",
    "query_batch": "query_batch_qps",
    "enum_count": "census_nodes_per_s",
    "enum_density": "density_count_s",
    "enum_list": "enum_list_words_per_s",
    "enum_classes": "class_scan_s",
}


@dataclass
class Command:
    """One CLI invocation: its operation name, arguments after `pnfkit`,
    its output check (returns an error message or None), the items it
    processes (rows, nodes, words) and a key naming its input when one
    operation runs on several inputs."""

    op: str
    args: list[str]
    check: Callable[[bytes], "str | None"]
    items: int = 1
    key: str = ""

    def __post_init__(self):
        self.key = self.key or self.op


@dataclass
class Workload:
    name: str
    commands: list[Command]
    facts: dict = field(default_factory=dict)


# --- input generators ---------------------------------------------------------


def random_word(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), "b").zfill(n)[-n:]


def sparse_word(rng: random.Random, n: int, p: float = SPARSE_P) -> str:
    return "".join("1" if rng.random() < p else "0" for _ in range(n))


def runs_word(rng: random.Random, n: int, runs: int = RUN_COUNT) -> str:
    cuts = sorted(rng.sample(range(1, n), runs - 1)) + [n]
    bit = rng.randint(0, 1)
    parts, prev = [], 0
    for cut in cuts:
        parts.append(str(bit) * (cut - prev))
        prev, bit = cut, bit ^ 1
    return "".join(parts)


def query_rows(rng: random.Random, n: int, rows: int, fmax: list[int], fmin: list[int]):
    """(ones, zeros) rows with k in [0, n+10]: for k <= n, about half
    fall inside [fmin[k], fmax[k]] and answer yes."""
    out = []
    for _ in range(rows):
        k = rng.randint(0, n + QUERY_EXTRA)
        if k <= n and rng.random() < 0.5:
            ones = rng.randint(fmin[k], fmax[k])
        else:
            ones = rng.randint(0, k)
        out.append((ones, k - ones))
    return out


def expected_answer(n: int, fmax: list[int], fmin: list[int], ones: int, zeros: int) -> bool:
    k = ones + zeros
    return k <= n and fmin[k] <= ones <= fmax[k]


# --- checks -----------------------------------------------------------------------


def exact(expected: bytes, what: str):
    def check(out: bytes):
        if out == expected:
            return None
        return f"{what}: stdout differs from the expected {len(expected)} bytes ({len(out)} bytes)"

    return check


def check_forms(word: str, pnf1: str, pnf0: str):
    """Cheap invariants on every output (lengths, densities), the digest
    of the oracle's forms, and 1-prefix-normality of PNF1, decided once
    per distinct output."""
    expected = oracle.digest(f"PNF1={pnf1}\nPNF0={pnf0}\n")
    ones = word.count("1")
    normal_cache: dict[str, bool] = {}

    def check(out: bytes):
        lines = out.decode("ascii", "replace").splitlines()
        if len(lines) != 2 or not lines[0].startswith("PNF1=") or not lines[1].startswith("PNF0="):
            return "pnf: expected two lines PNF1=... and PNF0=..."
        got1, got0 = lines[0][5:], lines[1][5:]
        if len(got1) != len(word) or len(got0) != len(word):
            return "pnf: a form's length differs from the word's"
        if got1.count("1") != ones or got0.count("1") != ones:
            return "pnf: a form's density differs from the word's"
        if got1 not in normal_cache:
            normal_cache[got1] = oracle.is_one_prefix_normal(got1)
        if not normal_cache[got1]:
            return "pnf: PNF1 is not 1-prefix-normal"
        if oracle.digest(out.decode("ascii")) != expected:
            return "pnf: forms differ from the sliding-window oracle"
        return None

    return check


def check_listing(n: int, count: int, rng: random.Random):
    sample = sorted(rng.sample(range(count), min(SAMPLE, count)))

    def check(out: bytes):
        words = out.decode("ascii", "replace").split()
        if len(words) != count:
            return f"enum {n}: {len(words)} words, expected {count}"
        if any(len(w) != n for w in words):
            return f"enum {n}: a word of the wrong length"
        if any(a <= b for a, b in zip(words, words[1:])):
            return f"enum {n}: words not strictly descending (duplicates or wrong order)"
        bad = [words[i] for i in sample if not oracle.is_one_prefix_normal(words[i])]
        return f"enum {n}: {bad[0]} is not 1-prefix-normal" if bad else None

    return check


def check_classes(n: int, count: int, rng: random.Random):
    sample = sorted(rng.sample(range(count), min(SAMPLE, count)))

    def check(out: bytes):
        lines = out.decode("ascii", "replace").splitlines()
        if not lines:
            return "classes: empty output"
        head = lines[0].split()
        rows = [line.split() for line in lines[1:]]
        try:
            sizes = [int(size) for _, size in rows]
            classes, max_size = int(head[0]), int(head[-1])
        except (ValueError, IndexError):
            return "classes: unparseable output"
        reps = [rep for rep, _ in rows]
        if classes != count or len(rows) != count:
            return f"classes: {classes} classes in the header, {len(rows)} rows, expected {count}"
        if sum(sizes) != 1 << n or max(sizes) != max_size:
            return "classes: sizes do not add up to 2^n or miss the stated maximum"
        if any(a <= b for a, b in zip(reps, reps[1:])):
            return "classes: representatives not strictly descending"
        bad = [reps[i] for i in sample if not oracle.is_one_prefix_normal(reps[i])]
        return f"classes: representative {bad[0]} is not 1-prefix-normal" if bad else None

    return check


# `pnfkit pnf 1`: process start-up and import, with nearly no work.
STARTUP = Command("startup", ["pnf", "1"], exact(b"PNF1=1\n", "pnf 1"))


# --- workloads -------------------------------------------------------------------


def setup(name: str, seed: int, work: Path, bruteforce=None) -> Workload:
    """Write the workload's inputs under work and return its commands.

    bruteforce, when given, answers (word, ones, zeros) with pnfkit's
    query_bruteforce; a seeded sample of query rows is checked against
    it as well as against the sliding-window oracle.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "forms":
        classes = (("random", random_word), ("sparse", sparse_word), ("runs", runs_word))
        commands = [
            forms_command(rng, work, cls, gen, FORMS_LENGTH, j)
            for j in range(WORDS_PER_CLASS)
            for cls, gen in classes
        ]
        return Workload(name, commands)
    if name == "index":
        return index_workload(rng, work, INDEX_LENGTH, QUERY_ROWS, QUERY_FILES, bruteforce)
    if name == "enum-lab":
        return Workload(name, enum_commands(rng, CENSUS_N, DENSITY, LIST_N, CLASS_N))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def forms_command(rng: random.Random, work: Path, cls: str, gen, n: int, j: int = 0) -> Command:
    """pnf --bit both on one generated word, checked against the oracle."""
    word = gen(rng, n)
    path = work / f"forms_{cls}_{j}.txt"
    path.write_text(word + "\n", encoding="ascii")
    pnf1, pnf0 = oracle.forms_from_profiles(*oracle.window_profiles(word))
    check = check_forms(word, pnf1, pnf0)
    args = ["pnf", "--file", str(path), "--bit", "both"]
    return Command(f"pnf_{cls}", args, check, key=f"pnf_{cls}.{j}")


def index_workload(
    rng: random.Random, work: Path, n: int, rows_per_file: int, files: int, bruteforce=None
) -> Workload:
    """index build of a random word, then query-batch over each CSV."""
    word = random_word(rng, n)
    word_path = work / "index_word.txt"
    word_path.write_text(word + "\n", encoding="ascii")
    ix_path = work / "index.bin"
    fmax, fmin = oracle.window_profiles(word)
    build = Command(
        "index_build",
        ["index", "build", str(word_path), "-o", str(ix_path)],
        exact(f"indexed {n} symbols -> {ix_path}\n".encode("ascii"), "index build"),
    )
    commands = [build]
    for j in range(files):
        rows = query_rows(rng, n, rows_per_file, fmax, fmin)
        answers = [expected_answer(n, fmax, fmin, o, z) for o, z in rows]
        if bruteforce is not None:
            for i in rng.sample(range(len(rows)), 20):
                ones, zeros = rows[i]
                if bruteforce(word, ones, zeros) != answers[i]:
                    raise RuntimeError(f"oracles disagree on row {rows[i]}")
        csv_path = work / f"queries_{j}.csv"
        csv_path.write_text(
            "ones,zeros\n" + "".join(f"{o},{z}\n" for o, z in rows), encoding="ascii"
        )
        expected = "".join("yes\n" if a else "no\n" for a in answers).encode("ascii")
        commands.append(
            Command(
                "query_batch",
                ["index", "query-batch", str(ix_path), str(csv_path)],
                exact(expected, "query-batch"),
                items=len(rows),
                key=f"query_batch.{j}",
            )
        )
    facts = {"n": n, "word": word, "index_path": ix_path, "rows": rows}
    return Workload("index", commands, facts)


def enum_commands(rng: random.Random, census_n: int, density: int, list_n: int, class_n: int):
    return [
        Command(
            "enum_count",
            ["enum", str(census_n), "--count-only"],
            exact(f"{oracle.PNW[census_n]}\n".encode(), "enum --count-only"),
            items=oracle.walk_nodes(census_n),
        ),
        Command(
            "enum_density",
            ["enum", str(census_n), "--density", str(density)],
            exact(f"{oracle.BY_DENSITY[census_n][density]}\n".encode(), "enum --density"),
        ),
        Command(
            "enum_list",
            ["enum", str(list_n)],
            check_listing(list_n, oracle.PNW[list_n], rng),
            items=oracle.PNW[list_n],
        ),
        Command(
            "enum_classes",
            ["enum", str(class_n), "--classes"],
            check_classes(class_n, oracle.PNW[class_n], rng),
        ),
    ]
