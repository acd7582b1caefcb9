"""pnfkit benchmark: drives the shipped CLI from outside and checks
every answer it gives.

    python3 perfbench/run.py --workload forms|index|enum-lab \
        --seed N --seconds S --trace 0|1 [--out FILE]

--trace 0 runs the workload as a closed loop with one client: each
`python -m pnfkit.cli` invocation starts after the previous one has
exited, and its wall time, CPU time and peak RSS come from os.wait4.
The only fan-out is the census walk, capped by PNFKIT_THREADS.

--trace 1 runs the per-layer suite instead (layers.py): the same kinds
of operations through pnfkit.cli.main in-process, with spans around the
public functions of bitword, pnf, jumbled and combinatorics, plus size
sweeps and batched loops for the hot per-row calls. The suite is a fixed
amount of work (about 25 s on 2 cores) and does not use --seconds.

Human-readable lines (metadata, every metric with unit and sample
count) come first on stdout; the last line is one JSON object with
the keys correct, attempted, failed and metrics. The full record
(samples, metadata, spans) goes to the --out JSON file.

Tests of the benchmark itself: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".perfbench-work"
CLI = (sys.executable, "-m", "pnfkit.cli")
SETUP_REPEATS = 3
INVOCATION_TIMEOUT_S = 60.0


@dataclass
class Sample:
    op: str
    key: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    error: "str | None"
    items: int


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PNFKIT_THREADS"] = workloads.THREADS
    return env


def invoke(args: list[str], work: Path, env: dict, argv0=CLI):
    """Run one CLI invocation to completion; return (stdout, exit code,
    wall seconds, rusage). The child leads a new process group so a timeout
    can stop it together with any workers it started."""
    out_path, err_path = work / "stdout", work / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    argv = [*argv0, *args]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions, setsid=True)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    return out_path.read_bytes(), os.waitstatus_to_exitcode(status), wall, usage


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_command(cmd: workloads.Command, work: Path, env: dict, argv0=CLI) -> Sample:
    out, code, wall, usage = invoke(cmd.args, work, env, argv0)
    if code != 0:
        stderr = (work / "stderr").read_text(errors="replace").strip().splitlines()
        error = f"exit {code}: {stderr[-1] if stderr else ''}"
    else:
        error = cmd.check(out)
    cpu = usage.ru_utime + usage.ru_stime
    return Sample(cmd.op, cmd.key, wall, cpu, usage.ru_maxrss, code, error, cmd.items)


def closed_loop(wl: workloads.Workload, seconds: float, work: Path, env: dict, argv0=CLI):
    """Cycle through the workload's commands, one at a time, starting
    each only while it is expected to finish within the time budget.
    The first full round always runs, so every operation has a sample."""
    samples: list[Sample] = []
    last_wall: dict[str, float] = {}  # by command key
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        cmd = wl.commands[i % len(wl.commands)]
        if i >= len(wl.commands) and time.perf_counter() + last_wall[cmd.key] > deadline:
            break
        sample = run_command(cmd, work, env, argv0)
        last_wall[cmd.key] = sample.wall_s
        samples.append(sample)
        i += 1
    return samples


def e2e_metrics(wl: workloads.Workload, samples: list[Sample], setup_s: list[float]):
    """Returns (metrics for the JSON line, report-only figures).

    Every workload reports the same three metrics: setup_s, round_s
    (one pass over the workload's commands, summed from each command's
    median wall time) and peak_rss_mb. Each operation's own figure
    (workloads.OP_METRICS) is reported by name beside them."""
    by_op: dict[str, list[Sample]] = {}
    by_key: dict[str, list[Sample]] = {}
    for s in samples:
        by_op.setdefault(s.op, []).append(s)
        by_key.setdefault(s.key, []).append(s)
    n = len(samples)

    def per_round(field: str) -> float:
        return sum(statistics.median(getattr(s, field) for s in by_key[c.key]) for c in wl.commands)

    metrics = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "round_s": (per_round("wall_s"), "s", n),
        "peak_rss_mb": (max(s.maxrss_kb for s in samples) / 1024, "MB", n),
    }
    report = {
        "failed_ratio": (sum(s.error is not None for s in samples) / n, "ratio", n),
        "cpu_s_per_round": (per_round("cpu_s"), "s", n),
    }
    for op, ss in by_op.items():
        name = workloads.OP_METRICS[op]
        if name.endswith("_s"):
            report[name] = (statistics.median(s.wall_s for s in ss), "s", len(ss))
        else:
            report[name] = (statistics.median(s.items / s.wall_s for s in ss), "1/s", len(ss))
    if "index_path" in wl.facts and wl.facts["index_path"].exists():
        size = wl.facts["index_path"].stat().st_size
        report["index_bytes_per_symbol"] = (size / wl.facts["n"], "B", 1)
    return metrics, report


def metadata(args) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "PNFKIT_THREADS": workloads.THREADS,
        "census_workers": min(os.cpu_count() or 1, int(workloads.THREADS)),
        "loadavg_start": os.getloadavg(),
    }


def _git_sha() -> "str | None":
    """HEAD's commit, read from .git without running git; None outside
    a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next((l.split()[0] for l in packed if l.endswith(ref[5:])), None)
        return ref
    except OSError:
        return None


def print_report(meta: dict, workload: str, metrics: dict, report: dict) -> None:
    print(f"# {json.dumps(meta)}")
    for name, (value, unit, count) in {**metrics, **report}.items():
        print(f"{workload:9s} {name:34s} {value:14.6g} {unit:6s} n={count}")


def run_e2e(args, work: Path):
    env = cli_env()
    setup_s, wl = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = workloads.setup(args.workload, args.seed, work, bruteforce=_bruteforce)
        warm = run_command(workloads.STARTUP, work, env)
        if warm.error:
            raise SystemExit(f"warm-up invocation failed: {warm.error}")
        setup_s.append(time.perf_counter() - start)
    samples = closed_loop(wl, args.seconds, work, env)
    metrics, report = e2e_metrics(wl, samples, setup_s)
    failed = sum(s.error is not None for s in samples)
    record = {"samples": [asdict(s) for s in samples], "setup_s": setup_s}
    for s in samples:
        if s.error:
            print(f"FAILED {s.op}: {s.error}", file=sys.stderr)
    return metrics, report, len(samples), failed, record


def _bruteforce(word: str, ones: int, zeros: int) -> bool:
    from pnfkit import jumbled, parse_word

    return jumbled.query_bruteforce(parse_word(word), ones=ones, zeros=zeros)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path,
        help="where to write the full record (default .perfbench-out/<workload>-seed<N>-trace<T>.json)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "pnfkit" / "cli.py").is_file():
        print(f"error: no pnfkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    meta = metadata(args)
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    try:
        if args.trace:
            import layers

            def startup_probe():
                return run_command(workloads.STARTUP, work, cli_env())

            metrics, report, attempted, failed, record = layers.run_suite(args.seed, work, startup_probe)
            for error in record["errors"]:
                print(f"FAILED {error}", file=sys.stderr)
        else:
            metrics, report, attempted, failed, record = run_e2e(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_report(meta, args.workload, metrics, report)
    out = args.out or ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.update(meta=meta, metrics=metrics, report=report)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, default=str))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
