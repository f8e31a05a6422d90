"""The track-finding algorithm: outcomes, moves, and invariants."""
from __future__ import annotations

import numpy as np
import pytest

from traintrack import (
    EmbeddedGraph,
    GraphSelfMap,
    GrowthOne,
    IterationLimitExceeded,
    Reducible,
    TrainTrack,
    bestvina_handel,
    compose_word,
    dehn_twist,
    identity_map,
    is_irreducible,
    is_permutation_matrix,
    is_train_track,
    pull_tight,
    remove_valence_two,
    spectral_radius,
    standard_generators,
    standard_rose,
    subdivide,
    tighten,
)
from traintrack import bh

import oracles
from conftest import REFERENCE_WORDS, run_word

MOVE_NAMES = {"pull_tight", "collapse", "valence_one", "valence_two",
              "subdivide", "fold"}


# ---------------------------------------------------------------------------
# Outcomes on the reference words
# ---------------------------------------------------------------------------

def test_reference_outcome_types(reference_runs):
    expected = {"ex1": TrainTrack, "ex2": TrainTrack, "ex3": TrainTrack,
                "ex4": TrainTrack, "ex5": Reducible}
    for name, cls in expected.items():
        assert isinstance(reference_runs[name].outcome, cls), name


@pytest.mark.parametrize("name,growth", [
    ("ex1", 1.7220838057393362),
    ("ex2", 4.390256884515755),
    ("ex3", 2.0153571812809963),
    ("ex4", 2.0424905339403514),
])
def test_reference_growth_regression(reference_runs, name, growth):
    assert reference_runs[name].outcome.growth == pytest.approx(growth,
                                                                abs=1e-9)


def test_final_maps_are_train_tracks(reference_runs):
    for name in ("ex1", "ex2", "ex3", "ex4"):
        outcome = reference_runs[name].outcome
        assert is_train_track(outcome.map), name
        assert is_irreducible(outcome.map.transition_matrix()), name
        assert outcome.growth > 1


def test_growth_matches_exact_oracle(reference_runs):
    for name in ("ex1", "ex2", "ex3", "ex4"):
        outcome = reference_runs[name].outcome
        want = oracles.largest_real_root(outcome.map.transition_matrix())
        assert outcome.growth == pytest.approx(want, abs=1e-9), name


def test_reducible_outcome_has_invariant_subgraph(reference_runs):
    outcome = reference_runs["ex5"].outcome
    assert isinstance(outcome, Reducible)
    inv = set(outcome.invariant_edges)
    edges = set(outcome.map.graph.edges)
    assert inv and inv < edges
    for e in inv:
        assert {abs(d) for d in outcome.map.image(e)} <= inv


# ---------------------------------------------------------------------------
# Simple outcomes
# ---------------------------------------------------------------------------

def test_identity_map_is_growth_one():
    outcome = bestvina_handel(identity_map(standard_rose(2)))
    assert isinstance(outcome, GrowthOne)
    assert is_permutation_matrix(outcome.map.transition_matrix())


def test_single_twist_is_reducible():
    rose = standard_rose(2)
    curve = standard_generators(2)["a0"]
    outcome = bestvina_handel(dehn_twist(rose, curve, 1))
    assert isinstance(outcome, Reducible)


def test_inverse_pair_word_is_growth_one():
    outcome = bestvina_handel(compose_word(2, [("c0", 1), ("c0", -1)]))
    assert isinstance(outcome, GrowthOne)


def test_iteration_cap():
    f = compose_word(2, list(REFERENCE_WORDS["ex1"][1]))
    with pytest.raises(IterationLimitExceeded):
        bestvina_handel(f, max_rounds=0)


# the genus-2 word whose cheap fold policy reproduces an earlier map, so the
# run ends only after switching to the complete policy
POLICY_SWITCH_WORD = (("a1", 1), ("a0", 1), ("c0", -1), ("c1", 1),
                      ("d1", 1), ("c0", 1))


def test_fold_policy_switch(monkeypatch):
    f = compose_word(2, list(POLICY_SWITCH_WORD))
    moves = []
    outcome = bestvina_handel(
        f, hook=lambda name, g, **info: moves.append(name))
    assert isinstance(outcome, GrowthOne)
    # the move count pins the round at which the policy switches
    assert len(moves) == 112
    # with no repeat ever detected the cheap policy cycles forever
    monkeypatch.setattr(bh, "_canonical_key", lambda g: object())
    with pytest.raises(IterationLimitExceeded):
        bestvina_handel(f, max_rounds=3000)


# a genus-3 word that ends as a train track although its rotation by two
# letters, a conjugate, ends with a fixed essential loop: TrainTrack alone
# does not yet certify a pseudo-Anosov class
CONJUGATE_SPLIT_WORD = (
    ("d0", -1), ("d0", -1), ("a2", 1), ("a2", -1), ("c1", -1), ("d2", 1),
    ("a1", 1), ("c2", -1), ("c1", 1), ("d0", -1), ("d2", -1), ("d0", 1),
    ("d2", -1), ("c2", -1), ("d0", 1), ("d0", 1), ("a2", 1), ("a0", -1),
    ("d0", -1), ("d0", -1), ("a2", -1))


@pytest.mark.xfail(strict=True, reason="a train track map is not tested "
                   "for reducibility, so a reducible class can end as "
                   "TrainTrack")
def test_verdict_is_conjugation_invariant():
    word = CONJUGATE_SPLIT_WORD
    first = run_word(3, word).outcome
    rotated = run_word(3, word[2:] + word[:2]).outcome
    assert type(first) is type(rotated)


def test_rotated_word_reduces_to_a_fixed_loop():
    word = CONJUGATE_SPLIT_WORD
    outcome = run_word(3, word[2:] + word[:2]).outcome
    assert isinstance(outcome, Reducible)
    (e,) = outcome.invariant_edges
    u, v = outcome.map.graph.edges[e]
    assert u == v
    assert outcome.map.edge_image[e] in ((e,), (-e,))


# ---------------------------------------------------------------------------
# Move-level invariants
# ---------------------------------------------------------------------------

def test_hook_snapshots_keep_surface_invariants(reference_runs):
    run = reference_runs["ex3"]
    assert run.snapshots, "expected at least one elementary move"
    last_growth = spectral_radius(run.start.transition_matrix())
    for move, f, info in run.snapshots:
        assert move in MOVE_NAMES
        assert f.preserves_boundary()
        assert oracles.face_count(f.graph) == 1
        assert oracles.genus_via_euler(f.graph) == run.genus
        growth = spectral_radius(f.transition_matrix())
        assert growth <= last_growth + 1e-7
        last_growth = growth


def test_hook_snapshots_have_tight_images(reference_runs):
    # every move returns tight images, so tightening once on entry suffices
    for name in REFERENCE_WORDS:
        for move, f, _info in reference_runs[name].snapshots:
            for e, p in f.edge_image.items():
                assert tighten(p) == p, (name, move, e)


def test_moves_reported_with_details(reference_runs):
    for name in REFERENCE_WORDS:
        for move, _f, info in reference_runs[name].snapshots:
            if move == "subdivide":
                assert {"edge", "at", "into"} <= set(info)
            elif move == "fold":
                assert {"edges", "into"} <= set(info)
            elif move == "collapse":
                assert "edges" in info


def test_deterministic_rerun():
    first = run_word(*REFERENCE_WORDS["ex3"], collect_snapshots=True)
    second = run_word(*REFERENCE_WORDS["ex3"], collect_snapshots=True)
    assert [m for m, _, _ in first.snapshots] == [
        m for m, _, _ in second.snapshots]
    assert oracles.maps_equal(first.final, second.final)
    assert first.outcome.growth == second.outcome.growth


# ---------------------------------------------------------------------------
# Individual moves
# ---------------------------------------------------------------------------

def test_subdivide_preserves_dynamics():
    f = compose_word(2, [("d0", 1), ("c0", 1), ("d1", 1)])
    lam = spectral_radius(f.transition_matrix())
    edge = next(e for e in sorted(f.graph.edges) if len(f.image(e)) >= 2)
    g = subdivide(f, edge, 1)
    assert len(g.graph.edges) == len(f.graph.edges) + 1
    assert g.preserves_boundary()
    assert oracles.genus_via_euler(g.graph) == 2
    assert spectral_radius(g.transition_matrix()) == pytest.approx(
        lam, abs=1e-8)
    # the new valence-two vertex can be removed again
    h = remove_valence_two(g)
    assert len(h.graph.edges) == len(f.graph.edges)
    assert spectral_radius(h.transition_matrix()) == pytest.approx(
        lam, abs=1e-8)


def test_pull_tight_reduces_images():
    rose = standard_rose(1)
    f = GraphSelfMap(rose, {0: 0}, {1: (1, 2, -2), 2: (2,)})
    g = pull_tight(f)
    assert g.image(1) == (1,)
    assert g.image(2) == (2,)
    # the algorithm tightens its input once, on entry
    moves = []
    outcome = bestvina_handel(
        f, hook=lambda name, g, **info: moves.append(name))
    assert moves == ["pull_tight"]
    assert isinstance(outcome, GrowthOne)


# a genus-1 spine: the rose's two loops at vertex 0 and an edge 3 out to
# the leaf vertex 1
LEAF_GRAPH = ({1: (0, 0), 2: (0, 0), 3: (0, 1)}, (1, 2, -1, -2, 3, -3))


def test_collapse_trivial_edge():
    f = GraphSelfMap(EmbeddedGraph(*LEAF_GRAPH), {0: 0, 1: 0},
                     {1: (1,), 2: (2,), 3: ()})
    moves = []
    outcome = bestvina_handel(
        f, hook=lambda name, g, **info: moves.append((name, info, g)))
    [(name, info, g)] = moves
    assert (name, info) == ("collapse", {"edges": [3]})
    assert sorted(g.graph.edges) == [1, 2]
    assert g.preserves_boundary()
    assert isinstance(outcome, GrowthOne)
    assert outcome.map is g


def test_valence_one_retracts_leaf():
    # edge 3 maps across itself, so it is no invariant forest; the leaf
    # vertex 1 is retracted instead
    f = GraphSelfMap(EmbeddedGraph(*LEAF_GRAPH), {0: 0, 1: 1},
                     {1: (1,), 2: (2,), 3: (1, 3)})
    moves = []
    outcome = bestvina_handel(
        f, hook=lambda name, g, **info: moves.append(name))
    assert moves == ["valence_one"]
    assert isinstance(outcome, GrowthOne)
    assert sorted(outcome.map.graph.edges) == [1, 2]
