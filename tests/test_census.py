"""Genus-2 census: every short word, checked against its class.

The census is every cyclically reduced word of one to three letters over
``±a0 ±a1 ±c0 ±c1 ±d0 ±d1``, taken up to rotation: 536 classes.  Each
class runs each of its distinct rotations and the inverse of its least
rotation, 2012 runs in all.  A mapping class has one verdict and one
dilatation, whatever word spells it, so the checks compare runs of a class
and test each verdict against oracles that read the input map:

- (a) every run of a class gets the same verdict;
- (b) no TrainTrack run fixes a circuit of at most 4 letters within 2 steps,
  on the input rose or on the final map;
- (c) λ agrees within 1e-9 across a class's TrainTrack runs and is at least
  the spectral radius of the homology action;
- (d) λ obeys Penner's bound 2^(1/16) for a once-punctured genus-2 surface,
  and Cho–Ham's closed genus-2 minimum 1.72208 unless the puncture is a
  one-prong (index +1/2), because filling the puncture then keeps λ;
- (e) the polygons' (k, index) multiset and the puncture index agree across
  a class's TrainTrack runs;
- (f) every GrowthOne run has a finite period on small circuits;
- (g) rerunning each class's least rotation with the fold loop started at
  the last illegal turn instead of the first gives the same verdict, λ
  within 1e-9 and the same singularity data;
- (h) λ of each class whose least rotation ends PseudoAnosov agrees within
  1e-3 relative with ``oracles.curve_growth`` of that run's input rose map,
  which reads λ off iterates of a loop with no train track, gate or matrix;
- (i) a Penner word (one that ``oracles.penner_data`` accepts) ends
  PseudoAnosov, with λ within 1e-9 of Penner's and the same puncture index;
- (j) when every letter's curve misses a generator curve γ or is γ, the
  class fixes γ, so the run never ends PseudoAnosov.  Intersections come
  from ``oracles.geometric_intersection`` on the standard rose's boundary
  word.

(i) and (j) read the word alone, so they share nothing with ``bh``.  No
word of length <= 3 is a Penner word, so (i) runs on the length-<= 4
census only.  Tier-1 also runs (i) and (j) on random genus-2 words of
length 1-8, drawn as the benchmark's draw-short workload draws them.

(a) and (b) fail until PseudoAnosov verdicts get BH95's reducibility test;
they sit in one strict xfail that lists every mismatch.  So does (g): five
classes flip between PseudoAnosov and Reducible with the fold order.  (b)
runs on each class's least rotation and its inverse only, final map first,
because the circuit search costs far more than the runs.

The ``slow`` tests, outside tier-1, run the length-<= 4 census (4238
classes) once: each class's least rotation and its inverse, 8476 runs.
They pin the outcomes with their verdict counts and run checks (c)-(f),
(i) and (j), which pass, and (a) and (g), each a strict xfail that lists
every mismatch: 35 classes whose two runs get two verdicts, and 34 least
rotations whose verdict flips with the fold order.  (b) is left out
because ``fixed_circuits`` on the 1419 TrainTrack runs would take minutes.
(h) is left out too.  ``curve_growth`` returns the plain last ratio of
lengths.  An Aitken step on the last ratios missed λ by more than 1e-3 on
15 of the 720 PseudoAnosov least rotations, because it amplifies the
oscillation of their ratios: the oracle, not λ, was at fault.  The plain
ratio at 200,000 letters misses on one, ``a0 c1 -d1 -a1`` (by 1.09e-3);
at 400,000 letters five of the 15, that one included, agree within 1e-3,
which a tier-1 test in ``test_bh.py`` checks.  Whether all 720 do at
400,000 letters is not checked: that scan takes about twice the 104 s of
one at 200,000.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from traintrack import bh, standard_generators, standard_rose

import oracles
from conftest import gate_map_keeps_gates_apart, run_word

GENUS = 2
LETTERS = tuple((name, sign) for name in ("a0", "a1", "c0", "c1", "d0", "d1")
                for sign in (1, -1))
PENNER = 2 ** (1 / 16)
CHO_HAM = 1.72208
# the classes whose verdict changes with the fold order, check (g)
FOLD_ORDER_FLIPS = ("c0 -d0 d1", "c0 d0 -d1", "c0 -d1 c1", "c0 -d1 d0",
                    "c0 d1 -d0")
# test_census_reports_are_pinned: a change that means to alter a run's
# outcome re-records it and says so
CENSUS_SHA256 = (
    "0d8bc5322e96ff467c7b4b125775d7d8ae0759331a72579b167106f2039a3db7")
# test_length_four_census_reports_are_pinned, under the same rule
CENSUS4_SHA256 = (
    "ca015a5a2f405c66e6bd24cd9cc5ca09644ec2f77952f0e8e9b556cce0bb41c7")


def _inverse(word):
    return tuple((name, -sign) for name, sign in reversed(word))


def _rotations(word):
    return sorted({word[i:] + word[:i] for i in range(len(word))})


def _text(word):
    return " ".join(("-" if sign < 0 else "") + name for name, sign in word)


def census_classes(max_len):
    """The least rotation of each class of cyclically reduced words."""
    classes = set()
    for length in range(1, max_len + 1):
        for word in itertools.product(LETTERS, repeat=length):
            if any(word[i - 1] == _inverse(word[i:i + 1])[0]
                   for i in range(length)):
                continue
            classes.add(_rotations(word)[0])
    return sorted(classes)


def census_runs(max_len):
    """Least rotation -> runs: its distinct rotations, then its inverse."""
    return {c: [run_word(GENUS, w) for w in _rotations(c) + [_inverse(c)]]
            for c in census_classes(max_len)}


@pytest.fixture(scope="module")
def census():
    return census_runs(3)


def _train_tracks(runs):
    return [run for run in runs if run.report.verdict == "PseudoAnosov"]


def _singularity_data(report):
    return (tuple(sorted((p.k, p.index) for p in report.polygons)),
            report.puncture_index)


def test_census_size(census):
    assert len(census) == 536
    assert sum(len(runs) for runs in census.values()) == 2012


def _pin(digest, run):
    """Hash a run's word, verdict, growth, singularity data and final
    graph into ``digest``."""
    rep = run.report
    digest.update(repr((
        run.word, rep.verdict,
        None if rep.growth is None else f"{rep.growth:.9f}",
        None if rep.polygons is None else sorted(
            (p.k, p.index) for p in rep.polygons),
        rep.puncture_index, sorted(run.final.graph.edges.items()),
        run.final.graph.rho)).encode())


def test_census_reports_are_pinned(census):
    # every run, hashed in fixture order: a refactor of the moves must keep
    # them all
    digest = hashlib.sha256()
    for runs in census.values():
        for run in runs:
            _pin(digest, run)
    assert digest.hexdigest() == CENSUS_SHA256


@pytest.fixture(scope="module")
def census4():
    """The length-<= 4 census: each class's least rotation, then its
    inverse, 8476 runs, hashed as they come into the pin's digest.

    Returns the hex digest and least rotation -> runs.  A run keeps only
    what the checks read: its word and report, its input map if it ends
    PseudoAnosov and its final map if it ends GrowthOne.
    """
    digest = hashlib.sha256()
    classes = {}
    for c in census_classes(4):
        classes[c] = []
        for word in (c, _inverse(c)):
            run = run_word(GENUS, word)
            _pin(digest, run)
            verdict = run.report.verdict
            classes[c].append(SimpleNamespace(
                word=run.word, report=run.report,
                start=run.start if verdict == "PseudoAnosov" else None,
                final=run.final if verdict == "GrowthOne" else None))
    return digest.hexdigest(), classes


@pytest.mark.slow
def test_length_four_census_reports_are_pinned(census4):
    digest, census = census4
    verdicts = Counter(run.report.verdict
                       for runs in census.values() for run in runs)
    assert verdicts == {"Reducible": 6897, "GrowthOne": 160,
                        "PseudoAnosov": 1419}
    assert digest == CENSUS4_SHA256


def _check_growth_above_homology(census):
    """Check (c); return how many classes have two TrainTrack runs."""
    compared = 0
    for c, runs in census.items():
        growths = [run.report.growth for run in _train_tracks(runs)]
        if len(growths) > 1:
            assert max(growths) - min(growths) <= 1e-9, _text(c)
            compared += 1
        for run in _train_tracks(runs):
            assert (run.report.growth
                    >= oracles.h1_spectral_radius(run.start) - 1e-9), _text(c)
    return compared


def _check_dilatation_bounds(census):
    """Check (d); return how many runs it read."""
    checked = 0
    for runs in census.values():
        for run in _train_tracks(runs):
            assert run.report.growth >= PENNER, _text(run.word)
            if run.report.puncture_index != Fraction(1, 2):
                assert run.report.growth >= CHO_HAM, _text(run.word)
            checked += 1
    return checked


def _check_singularity_data(census):
    """Check (e); return how many classes have two TrainTrack runs."""
    compared = 0
    for c, runs in census.items():
        tracks = _train_tracks(runs)
        assert len({_singularity_data(run.report) for run in tracks}) <= 1, \
            _text(c)
        compared += len(tracks) > 1
    return compared


def _check_growth_one_periods(census):
    """Check (f); return how many runs it read."""
    checked = 0
    for runs in census.values():
        for run in runs:
            if run.report.verdict == "GrowthOne":
                assert oracles.circuit_period(run.final, 4, 12) is not None, \
                    _text(run.word)
                checked += 1
    return checked


def _check_penner_words(census):
    """Check (i); return how many runs it read."""
    curves = standard_generators(GENUS)
    checked = 0
    for runs in census.values():
        for run in runs:
            try:
                data = oracles.penner_data(GENUS, curves, run.word)
            except ValueError:
                continue
            assert run.report.verdict == "PseudoAnosov", _text(run.word)
            assert abs(run.report.growth - data["growth"]) <= 1e-9, \
                _text(run.word)
            assert run.report.puncture_index == data["puncture_index"], \
                _text(run.word)
            checked += 1
    return checked


def _check_disjoint_curves(census):
    """Check (j); return how many runs it read."""
    curves = standard_generators(GENUS)
    rho = standard_rose(GENUS).rho
    # gamma -> the generators whose curves miss gamma's or are gamma
    fixing = {gamma: {x for x in curves if x == gamma
                      or not oracles.geometric_intersection(
                          curves[x], curves[gamma], rho)}
              for gamma in curves}
    checked = 0
    for runs in census.values():
        for run in runs:
            names = {name for name, _ in run.word}
            if any(names <= fixed for fixed in fixing.values()):
                assert run.report.verdict != "PseudoAnosov", _text(run.word)
                checked += 1
    return checked


def test_census_growth_is_a_class_invariant_above_homology(census):
    _check_growth_above_homology(census)


def test_census_growth_obeys_dilatation_bounds(census):
    _check_dilatation_bounds(census)


def test_census_singularity_data_is_a_class_invariant(census):
    _check_singularity_data(census)


def test_census_growth_one_runs_have_a_period(census):
    # no class of length <= 3 ends GrowthOne today; this guards verdicts
    # that move
    _check_growth_one_periods(census)


def test_census_runs_with_a_disjoint_curve_are_not_pseudo_anosov(census):
    # every rotation: 1820 runs, 976 of them least rotations and inverses,
    # all Reducible today
    assert _check_disjoint_curves(census) == 1820


def _draw_short_words(count):
    """The first ``count`` random words of the benchmark's draw-short
    workload, drawn as ``benchmarks/corpus.py`` draws them: from a stream
    seeded with the workload's name, a genus (always 2), a length of 1-8,
    then letters uniform over the sorted generators with a uniform sign."""
    draw = random.Random("draw-short")
    names = sorted(standard_generators(GENUS))
    words = []
    for _ in range(count):
        draw.randint(GENUS, GENUS)
        words.append(tuple((draw.choice(names), draw.choice((1, -1)))
                           for _ in range(draw.randint(1, 8))))
    return words


def _penner_word(word):
    try:
        oracles.penner_data(GENUS, standard_generators(GENUS), word)
    except ValueError:
        return False
    return True


def test_draw_short_penner_words_are_pseudo_anosov():
    # about one drawn word in a thousand is a Penner word, so the first
    # 20000 are screened by the oracle and only those 19 are run
    words = [w for w in _draw_short_words(20000) if _penner_word(w)]
    runs = {i: [run_word(GENUS, w)] for i, w in enumerate(words)}
    assert _check_penner_words(runs) == 19


def test_draw_short_runs_with_a_disjoint_curve_are_not_pseudo_anosov():
    # the 300 random words of a 25-second draw-short run; 212 end Reducible
    # and 6 GrowthOne today
    runs = {i: [run_word(GENUS, w)]
            for i, w in enumerate(_draw_short_words(300))}
    assert _check_disjoint_curves(runs) == 218


@pytest.mark.slow
def test_length_four_census_penner_words_are_pseudo_anosov(census4):
    assert _check_penner_words(census4[1]) == 80


@pytest.mark.slow
def test_length_four_census_runs_with_a_disjoint_curve_are_not_pseudo_anosov(
        census4):
    # 6240 end Reducible and 28 GrowthOne today
    assert _check_disjoint_curves(census4[1]) == 6268


@pytest.mark.slow
def test_length_four_census_growth_is_a_class_invariant_above_homology(
        census4):
    assert _check_growth_above_homology(census4[1]) == 692


@pytest.mark.slow
def test_length_four_census_growth_obeys_dilatation_bounds(census4):
    assert _check_dilatation_bounds(census4[1]) == 1419


@pytest.mark.slow
def test_length_four_census_singularity_data_is_a_class_invariant(census4):
    assert _check_singularity_data(census4[1]) == 692


@pytest.mark.slow
def test_length_four_census_growth_one_runs_have_a_period(census4):
    assert _check_growth_one_periods(census4[1]) == 160


def test_census_growth_matches_curve_growth_of_the_input(census):
    checked = 0
    for c, runs in census.items():
        run = runs[0]  # the least rotation
        if run.report.verdict == "PseudoAnosov":
            assert run.report.growth == pytest.approx(
                oracles.curve_growth(run.start), rel=1e-3), _text(c)
            checked += 1
    assert checked == 21


def test_census_gate_maps_keep_the_gates_at_a_vertex_apart(census):
    # and are well defined: each direction of a gate maps into the gate's
    # image, which gate_map takes from the gate's directions in turn.  The
    # gates bh.gates finds by squaring the direction map are those of
    # plain iteration
    checked = 0
    for runs in census.values():
        for run in runs:
            f = run.final
            if all(f.edge_image.values()):
                gate_of, induced = bh.gates(f), bh.gate_map(f)
                assert gate_of == oracles.gates_by_iteration(f), _text(
                    run.word)
                assert all(induced[gate_of[d]] == gate_of[f.derivative(d)]
                           for d in gate_of), _text(run.word)
                assert gate_map_keeps_gates_apart(f), _text(run.word)
                checked += 1
    assert checked == 2012


def _verdict_mismatches(census):
    """Check (a): each class whose runs get more than one verdict."""
    mismatches = []
    for c, runs in census.items():
        verdicts = [run.report.verdict for run in runs]
        if len(set(verdicts)) > 1:
            mismatches.append(("verdicts differ", _text(c), verdicts))
    return mismatches


@pytest.mark.xfail(strict=True,
                   reason="TrainTrack outcomes are not tested for reducibility")
def test_census_verdicts_are_class_invariants_and_certified(census):
    mismatches = _verdict_mismatches(census)
    for runs in census.values():
        for run in _train_tracks((runs[0], runs[-1])):
            if (oracles.fixed_circuits(run.final, 4, 2)
                    or oracles.fixed_circuits(run.start, 4, 2)):
                mismatches.append(("fixes a circuit", _text(run.word)))
    assert mismatches == []


def _last_illegal_turn(f, gate_of):
    # bh._first_illegal_turn's scan, keeping the last turn it meets
    turn = None
    for e in sorted(f.graph.edges):
        p = f.edge_image[e]
        for a, b in zip(p, p[1:]):
            if gate_of[-a] == gate_of[b]:
                turn = (-a, b)
    return turn


def _fold_order_mismatches(census, monkeypatch):
    """Check (g): rerun each class's least rotation, its first run, folding
    the last illegal turn, and list every class whose outcome changes."""
    monkeypatch.setattr(bh, "_first_illegal_turn", _last_illegal_turn)
    mismatches = []
    for c, runs in census.items():
        first, last = runs[0].report, run_word(GENUS, c).report
        if first.verdict != last.verdict:
            mismatches.append((_text(c), first.verdict, last.verdict))
        elif first.verdict == "PseudoAnosov" and (
                abs(first.growth - last.growth) > 1e-9
                or _singularity_data(first) != _singularity_data(last)):
            mismatches.append((_text(c), "growth or singularity data"))
    return mismatches


@pytest.mark.xfail(strict=True, reason="the verdicts of "
                   + ", ".join(FOLD_ORDER_FLIPS)
                   + " depend on the fold order")
def test_census_verdicts_do_not_depend_on_the_fold_order(census, monkeypatch):
    assert _fold_order_mismatches(census, monkeypatch) == []


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason="35 classes get PseudoAnosov from one "
                   "run and Reducible from the other (28 from the least "
                   "rotation, 7 from its inverse)")
def test_length_four_census_verdicts_are_class_invariants(census4):
    assert _verdict_mismatches(census4[1]) == []


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason="the verdicts of 34 least rotations "
                   "depend on the fold order (22 Reducible to PseudoAnosov, "
                   "12 the other way)")
def test_length_four_census_verdicts_do_not_depend_on_the_fold_order(
        census4, monkeypatch):
    assert _fold_order_mismatches(census4[1], monkeypatch) == []
