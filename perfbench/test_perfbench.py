"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
INTERACTIONS = json.loads((HERE / "interactions.json").read_text())


@pytest.fixture
def work(tmp_path):
    return tmp_path


def fake_cli(tmp_path: Path, body: str):
    """argv0 for a stand-in CLI whose behaviour is the given script."""
    script = tmp_path / "fake_cli.py"
    script.write_text(body)
    return (sys.executable, str(script))


def test_wrong_answer_and_nonzero_exit_raise_failed_ratio(work):
    wl = workloads.Workload(
        "enum-lab",
        [
            workloads.Command("enum_count", ["ok"], workloads.exact(b"42\n", "count")),
            workloads.Command("enum_density", ["wrong"], workloads.exact(b"42\n", "density")),
            workloads.Command("enum_classes", ["crash"], workloads.exact(b"42\n", "classes")),
        ],
    )
    argv0 = fake_cli(
        work,
        "import sys\n"
        "arg = sys.argv[1]\n"
        "if arg == 'crash': sys.exit(3)\n"
        "print(42 if arg == 'ok' else 41)\n",
    )
    samples = run.closed_loop(wl, 0.0, work, run.cli_env(), argv0=argv0)
    assert [s.error is None for s in samples] == [True, False, False]
    assert samples[2].exit_code == 3
    _, report = run.e2e_metrics(wl, samples, [0.1])
    assert report["failed_ratio"][0] == pytest.approx(2 / 3)


def test_checks_reject_corrupted_outputs(work):
    rng = random.Random(5)
    cmd = workloads.forms_command(rng, work, "random", workloads.random_word, 200)
    good = run.run_command(cmd, work, run.cli_env())
    assert good.error is None
    out = (work / "stdout").read_bytes()
    flip = out.index(b"0", 5)  # a symbol inside PNF1
    bad = out[:flip] + b"1" + out[flip + 1 :]
    assert cmd.check(bad) is not None

    listing = workloads.check_listing(8, oracle.PNW[8], rng)
    words = sorted(["".join(w) for w in _prefix_normal_words(8)], reverse=True)
    assert listing(("\n".join(words) + "\n").encode()) is None
    duplicated = words[:-1] + [words[0]]
    assert listing(("\n".join(duplicated) + "\n").encode()) is not None


def _prefix_normal_words(n):
    for bits in range(1 << n):
        word = format(bits, "b").zfill(n)
        if oracle.is_one_prefix_normal(word):
            yield word


def test_oracle_constants_agree():
    assert len(list(_prefix_normal_words(10))) == oracle.PNW[10]
    for n, hist in oracle.BY_DENSITY.items():
        assert sum(hist) == oracle.PNW[n]
    assert oracle.PNW[26] == 3657530 and oracle.PNW[20] == 87024 and oracle.PNW[16] == 7568


def test_e2e_metric_names_match_benchmark_json(work):
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name in workloads.WORKLOADS:
        wl = workloads.setup(name, 1, work)
        samples = [run.Sample(c.op, c.key, 1.0, 1.0, 1024, 0, None, c.items) for c in wl.commands]
        metrics, _ = run.e2e_metrics(wl, samples, [0.5])
        assert set(metrics) == names
        assert all(value > 0 for value, _, _ in metrics.values())
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_layer_metric_names_match_benchmark_json(work, monkeypatch):
    # Smaller sizes than a real run; the census depth stays at 24 because
    # the density check needs a stored histogram.
    monkeypatch.setattr(layers, "LAYER_N", 512)
    monkeypatch.setattr(layers, "QUERY_ROWS", 3000)
    monkeypatch.setattr(layers, "LIST_N", 12)
    monkeypatch.setattr(layers, "CLASS_N", 10)
    monkeypatch.setattr(layers, "LINEAR_SWEEP", [1 << 12, 1 << 13])
    monkeypatch.setattr(layers, "QUADRATIC_SWEEP", [128, 256, 512])
    monkeypatch.setattr(layers, "BATCHES", 10)
    monkeypatch.setattr(layers, "STARTUP_PROBES", 1)

    def startup_probe():
        return run.run_command(workloads.STARTUP, work, run.cli_env())

    metrics, _, attempted, failed, record = layers.run_suite(1, work, startup_probe)
    assert failed == 0, record["errors"]
    assert attempted > 0
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert set(metrics) == set(names) == set(INTERACTIONS["layers"])
    assert record["spans"], "the traced replays recorded no spans"


@pytest.mark.parametrize(
    "args",
    [["pnf", "--bit", "both", "0110100110"], ["enum", "9"], ["enum", "8", "--classes"], ["enum", "12", "--density", "5"]],
)
def test_tracing_leaves_stdout_byte_identical(args):
    from pnfkit import cli, pnf

    plain, _, code = layers.call_cli(args)
    tracer = layers.Tracer()
    with layers.traced(tracer):
        traced_out, _, traced_code = layers.call_cli(args)
    assert (traced_out, traced_code) == (plain, code)
    assert tracer.spans
    assert not hasattr(pnf.pnf_pair, "__wrapped__") and not hasattr(cli.parse_word, "__wrapped__")
