"""Self-test of the benchmark on tiny corpora.

Run from the repository root: ``python3 -m pytest -q benchmarks``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import run

run.add_paths()

import checker  # noqa: E402
import corpus  # noqa: E402
import hostspeed  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    """draw-short as ex1-ex5 plus three words, and a four-word classify."""
    short = corpus.WORKLOADS["draw-short"]
    monkeypatch.setitem(corpus.WORKLOADS, "draw-short", dataclasses.replace(
        short, rate=3, pinned=corpus.REFERENCES))
    long = corpus.WORKLOADS["classify-long"]
    monkeypatch.setitem(corpus.WORKLOADS, "classify-long", dataclasses.replace(
        long, genera=(2, 2), lengths=(6, 8), rate=4))


def run_tiny(name, trace, capsys):
    result = run.run_workload(name, 3, 1, trace)
    return result, capsys.readouterr().out


@pytest.mark.parametrize("name", ["draw-short", "classify-long"])
def test_every_metric_printed_with_its_unit(tiny, capsys, name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, out = run_tiny(name, trace, capsys)
        assert result["correct"] and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for key, unit in declared.items():
            assert f"# {key} " in out and out.split(f"# {key} ")[1].split(
                "\n")[0].endswith(f" {unit}")
        assert "# failed_frac " in out and "# digest " in out


def test_known_failure_is_counted(tiny, capsys):
    result, out = run_tiny("draw-short", False, capsys)
    assert result["failed"] == 1 and result["correct"]  # ex2
    assert "# failed word ex2 '-a1 d1 -c0 d0' (known defect" in out


def single_run(word):
    client = run.Client(corpus.WORKLOADS["classify-long"], [word], None)
    _, code, report, _ = client.call(client.args[0])
    return code, report


def reference_run(label):
    word = next(w for w in corpus.REFERENCES if w.label == label)
    code, report = single_run(word)
    return word, code, json.loads(report)


def test_iteration_cap_is_a_failed_word_not_a_wrong_output():
    code, report = single_run(corpus.ITERATION_CAP)
    problems = checker.check(corpus.ITERATION_CAP, code, report)
    assert problems == ["exit 3"]
    assert not checker.is_wrong_output(corpus.ITERATION_CAP, problems)


def test_checker_rejects_perturbed_growth():
    word, code, data = reference_run("ex1")
    assert checker.check(word, code, json.dumps(data)) == []
    # ex1's dilatation equals its homology spectral radius, so a growth
    # lowered by one part in a million breaks the oracle bound even though
    # it still matches the reference value within 1e-5
    data["growth"] *= 1 - 1e-6
    problems = checker.check(word, code, json.dumps(data))
    assert any("homology spectral radius" in p for p in problems)
    data["growth"] *= 1 + 1e-4
    problems = checker.check(word, code, json.dumps(data))
    assert problems == ["ex1 growth differs from the reference"]


def test_checker_rejects_broken_index_sum():
    word, code, data = reference_run("ex3")
    data["puncture_index"] = "-1"
    problems = checker.check(word, code, json.dumps(data))
    assert any("index sum" in p for p in problems)
    assert checker.is_wrong_output(word, problems)


def test_harrell_davis_quantile():
    assert run.harrell_davis([7.0] * 9, 0.9) == pytest.approx(7.0)
    # for 1..999 the estimate is close to the sample quantile
    assert run.harrell_davis(range(1, 1000), 0.9) == pytest.approx(900, abs=1)
    assert run.harrell_davis(range(1, 1000), 0.5) == pytest.approx(500, abs=1)


def test_gauge_reads_host_speed_without_the_collector():
    gauge = hostspeed.Gauge()
    assert 0.1 < gauge.slowdown(0.01) < 10 and gc.isenabled()
    gc.disable()
    try:
        gauge.slowdown(0.01)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_gauge_samples_during_a_run_and_leaves_no_timer():
    gauge = hostspeed.Gauge(sample=True)
    try:
        gauge.arm()
        t0 = perf_counter()
        while perf_counter() - t0 < 5 * hostspeed.PERIOD:
            pass
        sampled = gauge.disarm()
        assert gauge.inside[1] >= 2 and 0 < sampled < perf_counter() - t0
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert 0.1 < gauge.slowdown(0.1) < 10 and gauge.inside == (0.0, 0)
    finally:
        gauge.close()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_counts_repeat_exactly(tiny, capsys):
    first, _ = run_tiny("classify-long", True, capsys)
    second, _ = run_tiny("classify-long", True, capsys)
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if k.startswith(("bh.moves.", "bh.rounds"))
              or k.endswith(".calls")}
    assert counts["bh.rounds"] > 0 and counts["bh.moves.total"] > 0
    assert counts == {k: second["metrics"][k]["value"] for k in counts}


def test_refuses_without_the_program(tmp_path):
    """Beside BENCHMARK.json alone it exits non-zero and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "draw-short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
