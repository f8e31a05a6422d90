"""Shared fixtures: the five reference words, run once per session."""
from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from traintrack import bestvina_handel, compose_word, full_report, gate_map

import acceptance_log

# The five reference mapping classes used throughout the suite.
REFERENCE_WORDS = {
    "ex1": (2, (("a1", 1), ("c0", 1), ("d0", 1), ("a1", 1), ("d1", 1), ("a1", 1))),
    "ex2": (2, (("a1", -1), ("d1", 1), ("c0", -1), ("d0", 1))),
    "ex3": (2, (("a0", 1), ("c0", -1), ("d0", 1), ("d1", -1))),
    "ex4": (3, (("d0", 1), ("c0", 1), ("d1", 1), ("c1", 1), ("d2", 1), ("c2", -1))),
    "ex5": (2, (("d0", 1), ("c0", 1), ("d1", 1))),
}


def run_word(genus, word, collect_snapshots=False):
    """Compose the twists, run the algorithm, build the report."""
    snapshots = []

    def hook(name, f, **info):
        snapshots.append((name, f, info))

    t0 = time.perf_counter()
    f0 = compose_word(genus, list(word))
    outcome = bestvina_handel(f0, hook=hook if collect_snapshots else None)
    report = full_report(outcome)
    wall = time.perf_counter() - t0
    return SimpleNamespace(
        genus=genus,
        word=tuple(word),
        start=f0,
        outcome=outcome,
        final=outcome.map,
        report=report,
        snapshots=snapshots,
        wall=wall,
    )


def gate_map_keeps_gates_apart(f):
    """Whether the gate map sends distinct gates at one vertex to distinct
    gates, which ``infinitesimal_edges`` relies on."""
    at = {}
    for gate, image in gate_map(f).items():
        at.setdefault(f.graph.tail(next(iter(gate))), []).append(image)
    return all(len(set(images)) == len(images) for images in at.values())


@pytest.fixture(scope="session")
def reference_runs():
    return {name: run_word(genus, word, collect_snapshots=True)
            for name, (genus, word) in REFERENCE_WORDS.items()}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = acceptance_log.formatted()
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
