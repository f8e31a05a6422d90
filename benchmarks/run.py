"""The traintrack benchmark: seeded word corpora through the CLI pipeline.

Run from the repository root::

    python3 benchmarks/run.py --workload classify-long --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

One process, one thread, one closed-loop client: each word goes through
``traintrack.cli.run`` as ``--genus <g> --word=<w> --format json`` (plus
``--svg`` on draw-short), and the next word is sent only after the previous
report is back and checked.  ``--seconds`` sizes the corpus (corpus.py).

With ``--trace 0`` the corpus runs once, cheap words several times in a
row, and each run's wall time is scaled by the host's speed, measured around
and during it (hostspeed.py), which takes out most of the drift that other
tenants of a shared host cause; the last line of standard output is a JSON
object with the end-to-end metrics.  With ``--trace 1`` the corpus runs once
untraced and once traced (spans.py) and the object holds the per-layer
metrics.  The lines before it give the context, the output digest and every
metric with its unit.  ``--workload all`` runs each workload in its own
process and prints one table.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 8         # fresh interpreters before and after the pass
REPEAT_SECONDS = 0.025  # a word reruns in a pass until its runs add up to this
MAX_RUNS = 8            # ... or it has run this often


def add_paths():
    """Import the package from ``src/`` and the oracles from ``tests/``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def measure_setup(times, walls, gauge, warm=False):
    """Append the reference and wall times of fresh interpreters running
    ``import traintrack.cli``; with ``warm``, one untimed run first, so every
    timed one finds compiled bytecode."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", "import traintrack.cli"]
    for i in range(SETUP_RUNS + warm):
        t0 = perf_counter()
        subprocess.run(command, env=env, check=True, cwd=ROOT,
                       stdin=subprocess.DEVNULL)
        elapsed = perf_counter() - t0
        slowdown = gauge.slowdown(elapsed)
        if i >= warm:
            times.append(elapsed / slowdown)
            walls.append(elapsed)


def context(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    import numpy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "seed": seed, "src_lines": src_lines}


class Client:
    """The closed-loop client: sends each word, waits, checks the report."""

    def __init__(self, workload, words, scratch):
        from traintrack import cli, errors
        self.cli = cli
        self.exit_codes = ((errors.IterationLimitExceeded, 3),
                           (errors.PackingDidNotConverge, 4),
                           (errors.InternalInvariantError, 5),
                           ((ValueError, OSError), 2))
        self.words = words
        parser = cli.build_parser()
        self.svg_path = Path(scratch) / "word.svg" if workload.svg else None
        svg = ["--svg", str(self.svg_path)] if workload.svg else []
        self.args = [parser.parse_args(
            ["--genus", str(w.genus), f"--word={w.text}", "--format", "json"]
            + svg) for w in words]
        self.passes = []         # per pass, reference seconds per word
        self.walls = []          # per pass, wall seconds inside cli.run
        self.entries = None      # digest entries of the first pass
        self.failures = {}       # label -> problems, from the first pass
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0      # repeated runs whose outputs differ

    def call(self, args, gauge=None):
        """Run one word; its wall time leaves out the units a sampling
        gauge ran during it."""
        out = io.StringIO()
        if gauge is not None:
            gauge.arm()
        t0 = perf_counter()
        sampled = 0.0
        try:
            code = self.cli.run(args, out=out)
        except Exception as exc:
            # the exit code traintrack.cli.main gives the exception, or the
            # exception itself when main would let it escape
            code = next((c for types, c in self.exit_codes
                         if isinstance(exc, types)),
                        f"{type(exc).__name__}: {exc}")
        finally:
            if gauge is not None:
                sampled = gauge.disarm()
        elapsed = perf_counter() - t0 - sampled
        svg = None
        if self.svg_path is not None and code == 0:
            svg = self.svg_path.read_text(encoding="utf-8")
        return elapsed, code, out.getvalue(), svg

    def run_pass(self, gauge, repeat=False):
        """One pass over the corpus, recording each word's mean time per
        run, in wall and in reference seconds.

        The gauge runs a calibration chunk after each run, so every run is
        timed between two chunks (hostspeed.py).  With ``repeat``, a word
        runs again until its runs add up to REPEAT_SECONDS (at most MAX_RUNS
        runs), so a cheap word is timed over more than one run.
        The first pass checks every report; every later run must reproduce
        the first pass's digest entry exactly.
        """
        import checker
        first = self.entries is None
        entries = []
        times, walls = [], []
        for i, (word, args) in enumerate(zip(self.words, self.args)):
            spent, reference, runs = 0.0, 0.0, 0
            differs = False
            while not runs or (repeat and spent < REPEAT_SECONDS
                               and runs < MAX_RUNS):
                elapsed, code, report, svg = self.call(args, gauge)
                spent += elapsed
                reference += elapsed / gauge.slowdown(elapsed)
                runs += 1
                entry = checker.digest_entry(word, code, report, svg)
                if first and runs == 1:
                    entries.append(entry)
                    problems = checker.check(word, code, report, svg)
                    if problems:
                        self.failures[word.label] = problems
                elif entry != (entries if first else self.entries)[i]:
                    self.mismatched += 1
                    differs = True
            times.append(reference / runs)
            walls.append(spent / runs)
            self.attempted += 1
            if differs or word.label in self.failures:
                self.failed += 1
        if first:
            self.entries = entries
        self.passes.append(times)
        self.walls.append(walls)

    def correct(self):
        import checker
        by_label = {w.label: w for w in self.words}
        return self.mismatched == 0 and not any(
            checker.is_wrong_output(by_label[label], problems)
            for label, problems in self.failures.items())


def harrell_davis(values, p):
    """The Harrell-Davis estimate of the ``p``-quantile of ``values``.

    It is a weighted mean of all the sorted values, the i-th of n weighted
    by the mass of the Beta(p(n+1), (1-p)(n+1)) distribution on
    ((i-1)/n, i/n).  A sample percentile rests on the one or two values
    nearest to it, so one noisy word moves it; this estimate spreads the
    weight over the values around it.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x))

    # the mass on each interval, by the midpoint rule on 32 steps
    weights = [sum(density((i + (k + 0.5) / 32) / n) for k in range(32))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def word_metrics(times, setup_times):
    return {
        "words_per_s": (len(times) / sum(times), "1/s"),
        "word_p50_ms": (harrell_davis(times, 0.5) * 1e3, "ms"),
        "word_p90_ms": (harrell_davis(times, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def run_workload(name, seed, seconds, trace):
    import checker
    import corpus
    import hostspeed
    import spans

    workload = corpus.WORKLOADS[name]
    words = corpus.words(workload, seed, seconds)
    setup_times, setup_walls = [], []
    # SVGs go to a directory of the checkout, one per run
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-",
                                     dir=ROOT) as scratch:
        client = Client(workload, words, scratch)
        # warm-up: lazy imports and first-call paths, untimed
        warm = corpus.Word("warm-up", 2, (("a1", 1), ("c0", 1)))
        client.call(Client(workload, [warm], scratch).args[0])
        # the client's own objects stay out of the program's collections
        gc.collect()
        gc.freeze()
        # no units during runs when tracing: they would land in the spans
        gauge = hostspeed.Gauge(sample=not trace)
        try:
            if trace:
                client.run_pass(gauge)
                tracer = spans.Tracer()
                with tracer:
                    client.run_pass(gauge)
                untraced, traced = (sum(p) for p in client.passes)
                metrics = tracer.metrics(sum(client.walls[1]),
                                         traced / untraced - 1.0)
            else:
                measure_setup(setup_times, setup_walls, gauge, warm=True)
                client.run_pass(gauge, repeat=True)
                measure_setup(setup_times, setup_walls, gauge)
                metrics = word_metrics(client.passes[0], setup_times)
                wall = word_metrics(client.walls[0], setup_walls)
        finally:
            gauge.close()
        gc.unfreeze()

    print(f"# workload {name}, seed {seed}, {len(words)} words, "
          f"{len(client.passes)} passes, trace {int(trace)}")
    print(f"# context {json.dumps(context(seed), sort_keys=True)}")
    print(f"# digest {checker.digest(client.entries)}")
    for label, problems in client.failures.items():
        word = next(w for w in words if w.label == label)
        kind = ("wrong output" if checker.is_wrong_output(word, problems)
                else "known defect or documented exit")
        print(f"# failed word {label} '{word.text}' ({kind}): "
              f"{'; '.join(problems)}")
    if client.mismatched:
        print(f"# {client.mismatched} repeated runs gave a different report")
    print(f"# failed_frac {client.failed / client.attempted:.6f} ratio")
    for key, (value, unit) in metrics.items():
        print(f"# {key} {value:.6g} {unit}")
    if not trace:
        slowdowns = [w / t for w, t in zip(client.walls[0], client.passes[0])]
        print(f"# host slowdown median {statistics.median(slowdowns):.4g}, "
              f"range {min(slowdowns):.4g}-{max(slowdowns):.4g}; "
              "in wall time:")
        for key, (value, unit) in wall.items():
            if key != "peak_rss_mb":
                print(f"#   wall {key} {value:.6g} {unit}")
    return {
        "correct": client.correct(),
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def run_all(names, seed, seconds, trace):
    """Each workload in a fresh process; one table of their results."""
    rows = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    keys = list(rows[0][1]["metrics"])
    print(f"{'metric':<40}" + "".join(f"{name:>16}" for name, _ in rows))
    print(f"{'failed_frac (ratio)':<40}" + "".join(
        f"{r['failed'] / r['attempted']:>16.4g}" for _, r in rows))
    for key in keys:
        unit = rows[0][1]["metrics"][key]["unit"]
        print(f"{f'{key} ({unit})':<40}" + "".join(
            f"{r['metrics'][key]['value']:>16.4g}" for _, r in rows))
    print(f"{'correct':<40}" + "".join(f"{str(r['correct']):>16}"
                                       for _, r in rows))
    return 0


def main(argv=None):
    for needed in ("src/traintrack/cli.py", "tests/oracles.py",
                   "tests/conftest.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run the benchmark "
                  "from a checkout of the repository", file=sys.stderr)
            return 2
    add_paths()
    import corpus
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(corpus.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(tuple(corpus.WORKLOADS), args.seed, args.seconds,
                       args.trace)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
