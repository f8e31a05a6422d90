"""The acceptance gate: one test per advertised guarantee.

Every test here checks one externally stated guarantee of the package at
its stated tolerance, records a one-line PASS/FAIL verdict (printed in the
terminal summary by conftest), and then asserts.  A red test in this file
is an honest report that the library does not meet that guarantee; do not
weaken the expected values.
"""
from __future__ import annotations

import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from traintrack import (
    GrowthOne,
    TrainTrack,
    circle_pack,
    cone_triangulation,
    develop,
    emit_svg,
    infinitesimal_edges,
    is_permutation_matrix,
    polygons,
    spectral_radius,
)

import acceptance_log
import oracles
from conftest import REFERENCE_WORDS, run_word

SVG_NS = "{http://www.w3.org/2000/svg}"
GENUS2_GENERATORS = ("a0", "a1", "d0", "d1", "c0", "c1")
CORPUS_SEED = 20260825


def _record(criterion, checks, detail):
    """Log one criterion line, then assert every named clause."""
    failed = [name for name, ok in checks if not ok]
    ok = not failed
    if failed:
        detail = f"{detail} — failed: {'; '.join(failed)}"
    acceptance_log.record(criterion, ok, detail)
    assert ok, f"criterion {criterion}: {detail}"


def _cycle_lengths(perm):
    seen = set()
    lengths = []
    for start in range(len(perm)):
        if start in seen:
            continue
        n, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            n += 1
        lengths.append(n)
    return sorted(lengths)


@pytest.fixture(scope="module")
def corpus_runs():
    """100 random genus-2 words of length at most 6, fixed seed."""
    rng = random.Random(CORPUS_SEED)
    words = []
    for _ in range(100):
        length = rng.randint(1, 6)
        words.append(tuple(
            (rng.choice(GENUS2_GENERATORS), rng.choice((1, -1)))
            for _ in range(length)))
    return [run_word(2, word, collect_snapshots=True) for word in words]


# ---------------------------------------------------------------------------
# Criteria 1-5: the five reference words
# ---------------------------------------------------------------------------

def test_criterion_1_genus2_six_letter_word(reference_runs):
    run = reference_runs["ex1"]
    rep = run.report
    _record("1", [
        ("verdict PseudoAnosov", rep.verdict == "PseudoAnosov"),
        ("growth 1.722084 ± 1e-5",
         rep.growth == pytest.approx(1.722084, abs=1e-5)),
        ("zero interior polygons", rep.polygons == ()),
        ("puncture index -2 exactly", rep.puncture_index == Fraction(-2)),
        ("under 10 s", run.wall < 10.0),
    ], f"growth {rep.growth:.6f}, polygons {len(rep.polygons or ())}, "
       f"puncture {rep.puncture_index}, {run.wall:.2f}s")


def test_criterion_2_genus2_four_letter_word(reference_runs):
    # -a1 d1 -c0 d0 rotates, commuting the disjoint twists d0 and a1, to
    # -c0 -a1 d0 d1 = T_A T_B^-1 up to conjugacy, with A = {d0, d1} and
    # B = {a1, c0}: Penner's construction on the chain a1-d1-c0-d0.  A u B
    # has V = 3 crossings and E = 6 arcs, so F = -2 - 3 + 6 = 1 face, a
    # 12-gon around the puncture: a 6-prong singularity (index -2) at the
    # puncture and none inside.  Penner's lambda + 1/lambda = mu^2 + 2 gives
    # the growth.  test_analysis.py::test_ex2_is_penner_chain_of_four
    # derives all of this from the curve words alone.
    run = reference_runs["ex2"]
    rep = run.report
    polys = rep.polygons or ()
    _record("2", [
        ("verdict PseudoAnosov", rep.verdict == "PseudoAnosov"),
        ("growth 4.390257 ± 1e-5",
         rep.growth == pytest.approx(4.390257, abs=1e-5)),
        ("zero interior polygons", rep.polygons == ()),
        ("puncture index -2 exactly", rep.puncture_index == Fraction(-2)),
        ("under 10 s", run.wall < 10.0),
    ], f"growth {rep.growth:.6f}, computed polygons "
       f"{[(p.k, str(p.index)) for p in polys]}, "
       f"puncture {rep.puncture_index}, {run.wall:.2f}s")


def test_criterion_3_genus2_mixed_sign_word(reference_runs):
    run = reference_runs["ex3"]
    rep = run.report
    polys = rep.polygons or ()
    _record("3", [
        ("verdict PseudoAnosov", rep.verdict == "PseudoAnosov"),
        ("growth 2.015357 ± 1e-5",
         rep.growth == pytest.approx(2.015357, abs=1e-5)),
        ("four polygons, each k=3, index -1/2",
         len(polys) == 4 and all((p.k, p.index) == (3, Fraction(-1, 2))
                                 for p in polys)),
        ("orbit permutation is two 2-cycles",
         rep.orbit is not None and _cycle_lengths(rep.orbit) == [2, 2]),
        ("puncture index 0", rep.puncture_index == 0),
        ("under 10 s", run.wall < 10.0),
    ], f"growth {rep.growth:.6f}, polygons "
       f"{[(p.k, str(p.index)) for p in polys]}, orbit {rep.orbit}, "
       f"puncture {rep.puncture_index}, {run.wall:.2f}s")


def test_criterion_4_genus3_word(reference_runs):
    run = reference_runs["ex4"]
    rep = run.report
    polys = rep.polygons or ()
    index_total = (sum((p.index for p in polys), Fraction(0))
                   + (rep.puncture_index or 0))
    _record("4", [
        ("verdict PseudoAnosov", rep.verdict == "PseudoAnosov"),
        ("growth 2.042491 ± 1e-5",
         rep.growth == pytest.approx(2.042491, abs=1e-5)),
        ("two polygons with k=6, index -2",
         len(polys) == 2 and all((p.k, p.index) == (6, Fraction(-2))
                                 for p in polys)),
        ("polygons exchanged (one 2-cycle)",
         rep.orbit is not None and _cycle_lengths(rep.orbit) == [2]),
        ("puncture index 0", rep.puncture_index == 0),
        ("index sum -4 = 2-2*3", index_total == Fraction(-4)),
        ("under 10 s", run.wall < 10.0),
    ], f"growth {rep.growth:.6f}, polygons "
       f"{[(p.k, str(p.index)) for p in polys]}, orbit {rep.orbit}, "
       f"index sum {index_total}, {run.wall:.2f}s")


def test_criterion_5_reducible_word(reference_runs):
    run = reference_runs["ex5"]
    rep = run.report
    _record("5", [
        ("verdict Reducible", rep.verdict == "Reducible"),
        ("no growth value", rep.growth is None),
        ("under 10 s", run.wall < 10.0),
    ], f"verdict {rep.verdict}, growth {rep.growth}, {run.wall:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 6: property suite
# ---------------------------------------------------------------------------

def test_criterion_6a_move_invariants_on_random_words(corpus_runs):
    moves = 0
    bad_boundary = bad_faces = bad_genus = 0
    worst_uptick = 0.0
    for run in corpus_runs:
        lam = spectral_radius(run.start.transition_matrix())
        for _name, f, _info in run.snapshots:
            moves += 1
            if not f.preserves_boundary():
                bad_boundary += 1
            if oracles.face_count(f.graph) != 1:
                bad_faces += 1
            if oracles.genus_via_euler(f.graph) != 2:
                bad_genus += 1
            new = spectral_radius(f.transition_matrix())
            worst_uptick = max(worst_uptick, new - lam)
            lam = new
    _record("6a", [
        ("every move preserves the boundary word", bad_boundary == 0),
        ("every move keeps a single face", bad_faces == 0),
        ("every move preserves genus 2", bad_genus == 0),
        ("growth rate non-increasing (1e-7)", worst_uptick <= 1e-7),
    ], f"100 words all terminated, {moves} moves, "
       f"worst λ uptick {worst_uptick:.1e}")


def test_criterion_6b_twist_times_inverse_is_growth_one():
    bad = []
    for name in GENUS2_GENERATORS:
        run = run_word(2, ((name, 1), (name, -1)))
        if not (isinstance(run.outcome, GrowthOne)
                and run.report.growth == 1.0
                and is_permutation_matrix(run.final.transition_matrix())):
            bad.append(name)
    _record("6b", [
        ("every generator times its inverse reduces to growth exactly 1",
         not bad),
    ], f"{len(GENUS2_GENERATORS)} generator pairs"
       + (f", failing: {bad}" if bad else ""))


def test_criterion_6c_index_sum_identity(reference_runs, corpus_runs):
    checked = 0
    bad = 0
    for run in list(reference_runs.values()) + corpus_runs:
        rep = run.report
        if rep.verdict != "PseudoAnosov":
            continue
        total = (sum((p.index for p in rep.polygons), Fraction(0))
                 + rep.puncture_index)
        if total != 2 - 2 * run.genus:
            bad += 1
        checked += 1
    _record("6c", [
        ("index sum equals 2-2g on every pseudo-Anosov run", bad == 0),
        ("identity exercised on at least the reference words", checked >= 4),
    ], f"exact index sum verified on {checked} runs")


def test_criterion_6d_growth_is_rotation_invariant(reference_runs):
    worst = 0.0
    runs = 0
    for name in ("ex1", "ex2", "ex3", "ex4"):
        genus, word = REFERENCE_WORDS[name]
        base = reference_runs[name].report.growth
        for r in range(1, len(word)):
            rotated = word[r:] + word[:r]
            out = run_word(genus, rotated)
            worst = max(worst, abs(out.report.growth - base))
            runs += 1
    _record("6d", [
        ("every cyclic rotation matches the word's growth within 1e-6",
         worst <= 1e-6),
    ], f"{runs} rotations of the 4 pseudo-Anosov words, "
       f"max deviation {worst:.1e}")


def test_criterion_6e_growth_matches_exact_oracle(reference_runs,
                                                  corpus_runs):
    seen = {}

    def note(m):
        if len(m) <= 6:
            seen.setdefault(tuple(tuple(int(x) for x in row)
                                  for row in m), m)

    for run in list(reference_runs.values()) + corpus_runs:
        note(run.start.transition_matrix())
        note(run.final.transition_matrix())
        for _name, f, _info in run.snapshots:
            note(f.transition_matrix())
    worst = 0.0
    for m in seen.values():
        got = spectral_radius(m)
        want = oracles.largest_real_root(m)
        worst = max(worst, abs(got - want))
    _record("6e", [
        ("floating growth within 1e-9 of the exact Sturm-bisection root",
         worst <= 1e-9),
    ], f"{len(seen)} distinct matrices up to 6x6, max |Δλ| {worst:.1e}")


# ---------------------------------------------------------------------------
# Criterion 7: iterated images stay immersed
# ---------------------------------------------------------------------------

def test_criterion_7_second_and_third_iterates_immersed(reference_runs):
    edges = 0
    cancels = 0
    for name in ("ex1", "ex2", "ex3", "ex4"):
        f = reference_runs[name].final
        for e in sorted(f.graph.edges):
            p1 = f.edge_image[e]
            p2 = oracles.raw_apply(f, p1)
            p3 = oracles.raw_apply(f, p2)
            if oracles.has_cancellation(p2) or oracles.has_cancellation(p3):
                cancels += 1
            edges += 1
    _record("7", [
        ("raw f(f(e)) and f(f(f(e))) never backtrack", cancels == 0),
    ], f"checked {edges} edges across the 4 train tracks")


# ---------------------------------------------------------------------------
# Criterion 8: hyperbolic layout and SVG
# ---------------------------------------------------------------------------

def _layout_and_svg(run):
    graph = run.final.graph
    tri = cone_triangulation(graph)
    radii = circle_pack(tri)
    layout = develop(tri, radii)
    if run.report.verdict == "PseudoAnosov":
        structure = polygons(run.final, infinitesimal_edges(run.final))
    else:
        structure = ()
    return tri, radii, layout, emit_svg(layout, structure)


def test_criterion_8_layout_suite(reference_runs):
    worst_angle = worst_closure = worst_pair = 0.0
    count_ok = True
    deterministic = True
    for name, run in reference_runs.items():
        tri, radii, layout, svg = _layout_and_svg(run)
        n = len(tri.sides)
        r = [radii.vertex[v] for v in tri.corner_vertex]
        apex = sum(oracles.corner_angle(radii.apex, r[i], r[(i + 1) % n])
                   for i in range(n))
        worst_angle = max(worst_angle, abs(apex - 2 * math.pi))
        base = {v: 0.0 for v in run.final.graph.vertices}
        for i in range(n):
            j = (i + 1) % n
            base[tri.corner_vertex[i]] += oracles.corner_angle(
                r[i], radii.apex, r[j])
            base[tri.corner_vertex[j]] += oracles.corner_angle(
                r[j], r[i], radii.apex)
        for total in base.values():
            worst_angle = max(worst_angle, abs(total - 2 * math.pi))
        worst_closure = max(worst_closure, layout.closure_defect)
        worst_pair = max(worst_pair, layout.pair_defect)
        corners = [complex(x, y) for x, y in layout.corners]
        for i in range(n):
            j = tri.side_partner(i)
            li = oracles.disk_distance(corners[i], corners[(i + 1) % n])
            lj = oracles.disk_distance(corners[j], corners[(j + 1) % n])
            worst_pair = max(worst_pair, abs(li - lj))
        shaded = [el for el in ET.fromstring(svg).iter(f"{SVG_NS}polygon")
                  if el.get("class") == "inf-polygon"]
        if len(shaded) != len(run.report.polygons or ()):
            count_ok = False
        if svg != _layout_and_svg(run)[3]:
            deterministic = False
    _record("8", [
        ("packing angle sums within 1e-10 of 2π", worst_angle <= 1e-10),
        ("developed fan closes within 1e-8", worst_closure <= 1e-8),
        ("paired sides match in length within 1e-6", worst_pair <= 1e-6),
        ("shaded region count equals polygon count", count_ok),
        ("SVG byte-deterministic", deterministic),
    ], f"angle defect {worst_angle:.1e}, closure {worst_closure:.1e}, "
       f"pairing {worst_pair:.1e}, all 5 reference graphs")
