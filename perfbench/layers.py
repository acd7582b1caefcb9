"""Per-layer suite (--trace 1).

The suite is the same for every workload, so a layer metric means one
thing wherever it is reported. It has three parts:

1. Replays. Each CLI operation of the three workloads runs in-process
   through pnfkit.cli.main(argv), once untraced and once traced, at the
   sizes below. Tracing wraps public functions in the module namespaces
   where their callers look them up (cli.parse_word, pnf.pnf_pair,
   jumbled.pnf_pair, jumbled.build_index, combinatorics.census, ...);
   no file under src/ changes. Spans (name, start, end, parent, op)
   stay in memory and go to the --out record at the end. A span's self
   time is its duration minus its traced children's.
2. Batched loops for the hot per-row calls (RankDirectory.rank,
   JumbledIndex.query, JumbledIndex.query_via_rank): one timing per
   batch of calls, never one span per call.
3. Size sweeps, each fitted to a log-log slope: 2^12..2^20 for the
   operations bitword documents as linear, 512..4096 for the quadratic
   profiles and for index load. A sweep stops after the first size
   whose single call exceeds POINT_CAP_S, so a quadratic cost shows as
   a steep slope over fewer points instead of a run that never ends.

Census workers are child processes, so the census is timed from
outside, at 1 worker and at the CLI's worker count.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import math
import os
import random
import statistics
import time
from pathlib import Path

import oracle
import workloads
from pnfkit import bitword, cli, combinatorics, jumbled, pnf

LAYER_N = 4096  # word length for the profile, form and index layers (the index workload's)
QUERY_ROWS = 100_000
CENSUS_N, DENSITY, LIST_N, CLASS_N = 24, 11, 18, 16
LINEAR_SWEEP = [1 << e for e in range(12, 21)]
QUADRATIC_SWEEP = [512, 1024, 2048, 4096]
POINT_CAP_S = 0.5
MIN_POINT_S = 0.05  # repeat a sweep point until this much time has been measured
BATCHES, BATCH = 200, 250
RANK_SWEEP_BATCHES = 20
STARTUP_PROBES = 5


class Tracer:
    """In-memory spans. Generator spans record `busy`, the time spent
    inside the generator's own steps, since their consumer interleaves."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: "str | None" = None
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        return record

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            self._stack.append(record["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()

        return traced

    def wrap_generator(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            gen = fn(*args, **kwargs)
            busy = 0.0
            try:
                while True:
                    t = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    finally:
                        busy += time.perf_counter() - t
                    yield item
            finally:
                record["end"] = time.perf_counter()
                record["busy"] = busy

        return traced

    def duration(self, span: dict) -> float:
        return span["busy"] if "busy" in span else span["end"] - span["start"]

    def self_time(self, span: dict) -> float:
        children = [s for s in self.spans if s["parent"] == span["id"]]
        return self.duration(span) - sum(self.duration(c) for c in children)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]


# (module, attribute, span name); the generator function is wrapped apart.
TRACE_POINTS = [
    (cli, "parse_word", "bitword.parse_word"),
    (pnf, "max_ones_profile", "bitword.max_ones_profile"),
    (pnf, "max_zeros_profile", "bitword.max_zeros_profile"),
    (pnf, "pnf1", "pnf.pnf1"),
    (pnf, "pnf0", "pnf.pnf0"),
    (pnf, "pnf_pair", "pnf.pnf_pair"),
    (jumbled, "pnf_pair", "pnf.pnf_pair"),
    (jumbled, "build_index", "jumbled.build_index"),
    (jumbled, "dump_index", "jumbled.dump_index"),
    (jumbled, "load_index", "jumbled.load_index"),
    (combinatorics, "census", "combinatorics.census"),
    (combinatorics, "count_pnw", "combinatorics.count_pnw"),
    (combinatorics, "count_pnw_density", "combinatorics.count_pnw_density"),
    (combinatorics, "class_statistics", "combinatorics.class_statistics"),
]


@contextlib.contextmanager
def traced(tracer: Tracer):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACE_POINTS]
    saved.append((combinatorics, "enumerate_pn", combinatorics.enumerate_pn))
    try:
        for mod, attr, name in TRACE_POINTS:
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), name))
        combinatorics.enumerate_pn = tracer.wrap_generator(
            combinatorics.enumerate_pn, "combinatorics.enumerate_pn"
        )
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def call_cli(args: list[str]) -> tuple[bytes, float, int]:
    """cli.main in-process; returns (stdout, wall seconds, exit code)."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return buf.getvalue().encode("ascii"), time.perf_counter() - start, code


# --- timing helpers --------------------------------------------------------------


def best_time(fn, min_total: float = MIN_POINT_S) -> float:
    """Fastest of repeated calls, repeated until min_total has passed."""
    times: list[float] = []
    while sum(times) < min_total or len(times) < 2:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
        if times[-1] > POINT_CAP_S:
            break
    return min(times)


def sweep(make_input, fn, sizes) -> list[tuple[int, float]]:
    points = []
    for n in sizes:
        x = make_input(n)
        t = best_time(lambda: fn(x))
        points.append((n, t))
        if t > POINT_CAP_S:
            break
    return points


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares exponent b in t = a * n^b."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(t, 1e-9)) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def batched_ns(fn, inputs: list, batches: int = BATCHES, batch: int = BATCH) -> list[float]:
    """ns per call of fn over each batch of `batch` inputs."""
    out = []
    for b in range(batches):
        chunk = [inputs[(b * batch + i) % len(inputs)] for i in range(batch)]
        t = time.perf_counter()
        for x in chunk:
            fn(x)
        out.append((time.perf_counter() - t) / batch * 1e9)
    return out


def percentile(values: list[float], q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


# --- the suite -------------------------------------------------------------------


def run_suite(seed: int, work: Path, startup_probe):
    """Returns (metrics, report, attempted, failed, record) like run_e2e.

    startup_probe() runs `pnfkit pnf 1` as a subprocess and returns its
    Sample."""
    rng = random.Random(f"layers:{seed}")
    errors: list[str] = []
    attempted = failed = 0

    def fail(what: str, error: "str | None") -> int:
        if error:
            errors.append(f"{what}: {error}")
        return bool(error)
    m: dict[str, tuple[float, str, int]] = {}

    commands = [workloads.forms_command(rng, work, "random", workloads.random_word, LAYER_N)]
    ix = workloads.index_workload(rng, work, LAYER_N, QUERY_ROWS, 1)
    commands += ix.commands
    commands += workloads.enum_commands(rng, CENSUS_N, DENSITY, LIST_N, CLASS_N)

    # 1. replays, untraced then traced
    tracer = Tracer()
    walls = {"untraced": [], "traced": []}
    previous_threads = os.environ.get(combinatorics.THREADS_ENV_VAR)
    os.environ[combinatorics.THREADS_ENV_VAR] = workloads.THREADS
    workers = combinatorics.resolve_threads()
    try:
        for cmd in commands:
            plain, t_plain, code_plain = call_cli(cmd.args)
            tracer.op = cmd.op
            with traced(tracer):
                out, t_traced, code = call_cli(cmd.args)
            tracer.op = None
            walls["untraced"].append(t_plain)
            walls["traced"].append(t_traced)
            attempted += 2
            failed += fail(f"untraced {cmd.op}", f"exit {code_plain}" if code_plain else cmd.check(plain))
            error = f"exit {code}" if code else cmd.check(out)
            if not error and out != plain:
                error = "stdout differs from the untraced call's"
            failed += fail(f"traced {cmd.op}", error)
            if cmd.op == "query_batch":
                m["jumbled.yes_ratio"] = (out.count(b"yes") / QUERY_ROWS, "ratio", QUERY_ROWS)
    finally:
        if previous_threads is None:
            os.environ.pop(combinatorics.THREADS_ENV_VAR, None)
        else:
            os.environ[combinatorics.THREADS_ENV_VAR] = previous_threads
    m["trace.overhead_ratio"] = (sum(walls["traced"]) / sum(walls["untraced"]), "ratio", len(commands))

    def med(name):
        spans = tracer.named(name)
        return (statistics.median(tracer.duration(s) for s in spans), "s", len(spans))

    for name in (
        "bitword.max_ones_profile", "bitword.max_zeros_profile", "bitword.parse_word",
        "pnf.pnf_pair", "pnf.pnf1", "pnf.pnf0", "jumbled.build_index", "jumbled.dump_index",
        "jumbled.load_index", "combinatorics.count_pnw_density", "combinatorics.class_statistics",
    ):
        m[f"{name}_s"] = med(name)
    pair_self = [
        tracer.self_time(s)
        + sum(tracer.self_time(c) for c in tracer.spans if c["parent"] == s["id"])
        for s in tracer.named("pnf.pnf_pair")
    ]
    m["pnf.self_s"] = (statistics.median(pair_self), "s", len(pair_self))
    (build,) = tracer.named("jumbled.build_index")
    m["jumbled.build_index.self_s"] = (tracer.self_time(build), "s", 1)
    (census_nw,) = tracer.named("combinatorics.census")
    t_nw = tracer.duration(census_nw)
    m["combinatorics.census_nw_s"] = (t_nw, "s", 1)
    (listing,) = tracer.named("combinatorics.enumerate_pn")
    m["combinatorics.enumerate_pn_words_per_s"] = (oracle.PNW[LIST_N] / tracer.duration(listing), "1/s", 1)

    # 2. batched loops
    pnf1_word = bitword.parse_word(oracle.forms_from_profiles(*oracle.window_profiles(ix.facts["word"]))[0])
    m["bitword.rank_directory_build_s"] = (best_time(lambda: bitword.RankDirectory(pnf1_word)), "s", 1)
    directory = bitword.RankDirectory(pnf1_word)
    positions = [rng.randint(0, LAYER_N) for _ in range(BATCH * 8)]
    ns = batched_ns(lambda i: directory.rank(1, i), positions)
    m["bitword.rank_ns_p50"] = (percentile(ns, 0.5), "ns", len(ns))
    m["bitword.rank_ns_p99"] = (percentile(ns, 0.99), "ns", len(ns))
    with open(ix.facts["index_path"], "rb") as fp:
        index = jumbled.load_index(fp)
    rows = ix.facts["rows"]
    for name, fn in (("query", index.query), ("query_via_rank", index.query_via_rank)):
        ns = batched_ns(lambda r: fn(ones=r[0], zeros=r[1]), rows)
        m[f"jumbled.{name}_ns_p50"] = (percentile(ns, 0.5), "ns", len(ns))
        m[f"jumbled.{name}_ns_p99"] = (percentile(ns, 0.99), "ns", len(ns))
    m["jumbled.index_bytes"] = (ix.facts["index_path"].stat().st_size, "B", 1)

    # cli self time: the traced in-process call's wall time (no process
    # start-up) minus the library time traced under it. Query-batch rows
    # are not spanned; their time is taken from the query_via_rank loop.
    per_row_s = m["jumbled.query_via_rank_ns_p50"][0] / 1e9
    for cmd, wall in zip(commands, walls["traced"]):
        library = sum(tracer.duration(s) for s in tracer.spans if s["op"] == cmd.op and s["parent"] is None)
        if cmd.op == "query_batch":
            library += QUERY_ROWS * per_row_s
        op = "pnf" if cmd.op.startswith("pnf_") else cmd.op
        m[f"cli.self_s.{op}"] = (wall - library, "s", 1)

    # census at one worker, timed from outside
    t = time.perf_counter()
    c = combinatorics.census(CENSUS_N, threads=1)
    t_1w = time.perf_counter() - t
    attempted += 1
    nodes = sum(c.pnw)
    expected = oracle.walk_nodes(CENSUS_N)
    failed += fail(f"census({CENSUS_N})", f"{nodes} nodes, expected {expected}" if nodes != expected else None)
    m["combinatorics.walk_nodes"] = (nodes, "count", 1)
    m["combinatorics.census_1w_s"] = (t_1w, "s", 1)
    m["combinatorics.walk_nodes_per_s_1w"] = (nodes / t_1w, "1/s", 1)
    m["combinatorics.parallel_efficiency"] = (t_1w / (workers * t_nw), "ratio", 1)

    # 3. sweeps
    def word_of(n):
        return bitword.BinaryWord(rng.getrandbits(n), n)

    points = {
        "parse_word": sweep(lambda n: word_of(n).to01(), bitword.parse_word, LINEAR_SWEEP),
        "prefix_counts": sweep(word_of, lambda w: w.prefix_counts(1), LINEAR_SWEEP),
        "reverse": sweep(word_of, lambda w: w.reverse(), LINEAR_SWEEP),
        "iter": sweep(word_of, lambda w: collections.deque(w, maxlen=0), LINEAR_SWEEP),
        "profile": sweep(word_of, bitword.max_ones_profile, QUADRATIC_SWEEP),
    }

    def rank_p50(directory):
        n = len(directory.word)
        inputs = [rng.randint(0, n) for _ in range(BATCH * 4)]
        return statistics.median(batched_ns(lambda i: directory.rank(1, i), inputs, RANK_SWEEP_BATCHES))

    rank_points = []
    for n in LINEAR_SWEEP:
        t = time.perf_counter()
        directory = bitword.RankDirectory(word_of(n))
        rank_points.append((n, rank_p50(directory)))
        if time.perf_counter() - t > POINT_CAP_S:
            break
    points["rank"] = rank_points

    def index_file(n):
        if n == LAYER_N:
            return ix.facts["index_path"]
        path = work / f"sweep_{n}.bin"
        with open(path, "wb") as fp:
            jumbled.dump_index(jumbled.build_index(word_of(n)), fp)
        return path

    def load(path):
        with open(path, "rb") as fp:
            jumbled.load_index(fp)

    points["load"] = sweep(index_file, load, QUADRATIC_SWEEP)
    for name in ("parse_word", "prefix_counts", "reverse", "iter", "profile", "rank"):
        m[f"bitword.{name}_slope"] = (slope(points[name]), "exponent", len(points[name]))
    m["jumbled.load_slope"] = (slope(points["load"]), "exponent", len(points["load"]))

    # process start-up of the CLI
    probes = [startup_probe() for _ in range(STARTUP_PROBES)]
    attempted += len(probes)
    failed += sum(fail("startup", s.error) for s in probes)
    m["cli.startup_s"] = (statistics.median(s.wall_s for s in probes), "s", len(probes))

    record = {"spans": tracer.spans, "errors": errors, "walls": walls, "sweeps": points}
    return m, {}, attempted, failed, record
