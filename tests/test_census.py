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
- (h) λ of each class whose least rotation ends PseudoAnosov agrees within
  1e-3 relative with ``oracles.curve_growth`` of that run's input rose map,
  which reads λ off iterates of a loop with no train track, gate or matrix.

Check (g), that the verdict does not depend on the fold order, is not here
yet.

(a) and (b) fail until PseudoAnosov verdicts get BH95's reducibility test;
they sit in one strict xfail that lists every mismatch.  (b) runs on each
class's least rotation and its inverse only, final map first, because the
circuit search costs far more than the runs.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

import oracles
from conftest import gate_map_keeps_gates_apart, run_word

GENUS = 2
LETTERS = tuple((name, sign) for name in ("a0", "a1", "c0", "c1", "d0", "d1")
                for sign in (1, -1))
PENNER = 2 ** (1 / 16)
CHO_HAM = 1.72208


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


@pytest.fixture(scope="module")
def census():
    """Least rotation -> runs: its distinct rotations, then its inverse."""
    return {c: [run_word(GENUS, w) for w in _rotations(c) + [_inverse(c)]]
            for c in census_classes(3)}


def _train_tracks(runs):
    return [run for run in runs if run.report.verdict == "PseudoAnosov"]


def test_census_size(census):
    assert len(census) == 536
    assert sum(len(runs) for runs in census.values()) == 2012


def test_census_growth_is_a_class_invariant_above_homology(census):
    for c, runs in census.items():
        growths = [run.report.growth for run in _train_tracks(runs)]
        if growths:
            assert max(growths) - min(growths) <= 1e-9, _text(c)
        for run in _train_tracks(runs):
            assert (run.report.growth
                    >= oracles.h1_spectral_radius(run.start) - 1e-9), _text(c)


def test_census_growth_obeys_dilatation_bounds(census):
    for runs in census.values():
        for run in _train_tracks(runs):
            assert run.report.growth >= PENNER, _text(run.word)
            if run.report.puncture_index != Fraction(1, 2):
                assert run.report.growth >= CHO_HAM, _text(run.word)


def test_census_singularity_data_is_a_class_invariant(census):
    for c, runs in census.items():
        data = {(tuple(sorted((p.k, p.index) for p in run.report.polygons)),
                 run.report.puncture_index) for run in _train_tracks(runs)}
        assert len(data) <= 1, _text(c)


def test_census_growth_one_runs_have_a_period(census):
    # no census class ends GrowthOne today; this guards verdicts that move
    for runs in census.values():
        for run in runs:
            if run.report.verdict == "GrowthOne":
                assert oracles.circuit_period(run.final, 4, 12) is not None, \
                    _text(run.word)


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
    checked = 0
    for runs in census.values():
        for run in runs:
            if all(run.final.edge_image.values()):
                assert gate_map_keeps_gates_apart(run.final), _text(run.word)
                checked += 1
    assert checked > 1000


@pytest.mark.xfail(strict=True,
                   reason="TrainTrack outcomes are not tested for reducibility")
def test_census_verdicts_are_class_invariants_and_certified(census):
    mismatches = []
    for c, runs in census.items():
        verdicts = sorted({run.report.verdict for run in runs})
        if len(verdicts) > 1:
            mismatches.append(("verdicts differ", _text(c), verdicts))
        for run in _train_tracks((runs[0], runs[-1])):
            if (oracles.fixed_circuits(run.final, 4, 2)
                    or oracles.fixed_circuits(run.start, 4, 2)):
                mismatches.append(("fixes a circuit", _text(run.word)))
    assert mismatches == []
