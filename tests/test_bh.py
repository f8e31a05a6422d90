"""The track-finding algorithm: outcomes, moves, and invariants."""
from __future__ import annotations

import hashlib
import random

import networkx as nx
import numpy as np
import pytest

from traintrack import (
    EmbeddedGraph,
    GraphSelfMap,
    GraphStructureError,
    GrowthOne,
    InternalInvariantError,
    IterationLimitExceeded,
    Reducible,
    TrainTrack,
    bestvina_handel,
    compose_word,
    dehn_twist,
    is_irreducible,
    is_permutation_matrix,
    spectral_radius,
    standard_generators,
    standard_rose,
)
from traintrack import bh, growth
from traintrack.graphs import _path_image, substitute

import oracles
from conftest import REFERENCE_WORDS, gate_map_keeps_gates_apart, run_word
from test_census import census_runs

MOVE_NAMES = {"collapse", "valence_two", "fold"}


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
        assert not oracles.illegal_turns(outcome.map), name
        assert is_irreducible(outcome.map.transition_matrix()), name
        assert outcome.growth > 1


def test_growth_matches_exact_oracle(reference_runs):
    for name in ("ex1", "ex2", "ex3", "ex4"):
        outcome = reference_runs[name].outcome
        want = oracles.largest_real_root(outcome.map.transition_matrix())
        assert outcome.growth == pytest.approx(want, abs=1e-9), name


def _growth_checked_on_a_curve(genus, word):
    f = compose_word(genus, word)
    outcome = bestvina_handel(f)
    if isinstance(outcome, TrainTrack):
        assert outcome.growth == pytest.approx(
            oracles.curve_growth(f), rel=1e-3), word
    return outcome


def test_growth_matches_curve_growth_of_the_input():
    """λ read off the input rose map alone, by iterating it on a loop, with
    no train track, gate or matrix: a wrong gate partition or transition
    matrix would leave a final map whose λ is too large."""
    for name in ("ex1", "ex2", "ex3", "ex4"):
        outcome = _growth_checked_on_a_curve(*REFERENCE_WORDS[name])
        assert isinstance(outcome, TrainTrack), name
    rng = random.Random(16)
    names = sorted(standard_generators(2))
    sampled = 0
    while sampled < 8:
        word = [(rng.choice(names), rng.choice((1, -1)))
                for _ in range(rng.randint(3, 8))]
        outcome = _growth_checked_on_a_curve(2, word)
        sampled += isinstance(outcome, TrainTrack)


def test_curve_growth_settles_on_oscillating_length_four_classes():
    # five of the 15 length-<= 4 least rotations on which an Aitken step on
    # curve_growth's ratios misses λ by more than 1e-3: three with
    # λ = 2.015357, whose length ratios oscillate, one with 3.506068 and
    # one with 3.254264
    for text in ("a0 c1 -d1 -a1", "-a0 c0 d1 -c1", "a1 d1 -d0 -c0",
                 "-a0 d1 -c1 -c0", "c0 d1 -c1 -c1"):
        word = [(t.lstrip("-"), -1 if t[0] == "-" else 1)
                for t in text.split()]
        f = compose_word(2, word)
        outcome = bestvina_handel(f)
        assert isinstance(outcome, TrainTrack), text
        assert outcome.growth == pytest.approx(
            oracles.curve_growth(f, letters=400_000), rel=1e-3), text


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
    outcome = bestvina_handel(compose_word(2, []))
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


def test_iteration_cap(monkeypatch):
    monkeypatch.setattr(bh, "MAX_ROUNDS", 0)
    f = compose_word(2, list(REFERENCE_WORDS["ex1"][1]))
    with pytest.raises(IterationLimitExceeded):
        bestvina_handel(f)


# -a0 -a1 -c0 -d1 -d0 twists about the chain a0-d0-c0-d1-a1.  The chain
# relation (T1 ... T5)^6 = T_boundary, and the boundary twist is trivial on
# the once-punctured surface, so the class has order six.  A full fold at
# the orbit's merge point merges the illegal turn's point into the rose
# vertex and rebuilds the same map, so the round must keep that point.
CHAIN_OF_FIVE_WORD = (("a0", -1), ("a1", -1), ("c0", -1), ("d1", -1),
                      ("d0", -1))


def test_chain_of_five_has_order_six():
    words = standard_generators(2)
    rho = standard_rose(2).rho
    chain = ("a0", "d0", "c0", "d1", "a1")
    for i, a in enumerate(chain):
        for j in range(i + 1, len(chain)):
            meet = oracles.geometric_intersection(words[a], words[chain[j]],
                                                  rho)
            assert meet == (j == i + 1), (a, chain[j])
    f = compose_word(2, list(CHAIN_OF_FIVE_WORD))
    assert oracles.circuit_period(f, 4, 6) == 6
    assert isinstance(bestvina_handel(f), GrowthOne)


# genus-2 classes of order ten, on which fold loops without a descent
# check ran past 1500 rounds
POLICY_SWITCH_WORD = (("a1", 1), ("a0", 1), ("c0", -1), ("c1", 1),
                      ("d1", 1), ("c0", 1))
ORDER_TEN_WORD = (("a1", 1), ("c0", -1), ("a0", 1), ("a1", -1), ("c0", 1),
                  ("c1", 1), ("d0", 1), ("d1", 1))


@pytest.mark.parametrize("word", [POLICY_SWITCH_WORD, ORDER_TEN_WORD],
                         ids=["policy_switch", "order_ten"])
def test_order_ten_words_are_growth_one(word):
    f = compose_word(2, list(word))
    assert oracles.circuit_period(f, 4, 10) == 10
    assert isinstance(bestvina_handel(f), GrowthOne)


def test_word_that_broke_full_turn_folding_is_a_train_track():
    # resolving every turn fully raised "derivative orbit never merged" here
    f = compose_word(2, [("c1", -1), ("d1", -1), ("c0", -1), ("d1", -1),
                         ("c0", -1), ("a0", -1)])
    outcome = bestvina_handel(f)
    assert isinstance(outcome, TrainTrack)
    assert outcome.growth == pytest.approx(1.7220838057393362, abs=1e-9)


def test_round_that_cancels_nothing_raises(monkeypatch):
    # every fold reports no cancelled letter, so the descent check stops the
    # first round at its pass cap, (2E + 2)^2 = 100 folds on ex2's four
    # edges; without it the loop would run on to bh.MAX_ROUNDS.  ex1 would
    # not do: its first rounds end by removing a valence-two vertex
    rounds, folds = [], []
    count_round = bh.is_permutation_matrix
    monkeypatch.setattr(bh, "is_permutation_matrix",
                        lambda m: rounds.append(m) or count_round(m))
    fold = bh._fold
    monkeypatch.setattr(bh, "_fold",
                        lambda prep, d1, d2: fold(prep, d1, d2)[:2] + (0,))
    f = compose_word(*REFERENCE_WORDS["ex2"])
    assert len(f.graph.edges) == 4
    with pytest.raises(InternalInvariantError,
                       match="^fold round cancelled no letter$"):
        bestvina_handel(
            f, hook=lambda name, _g, **info: folds.append(name == "fold"))
    assert len(rounds) == 1
    assert sum(folds) == 100


def _inverse(word):
    return tuple((name, -sign) for name, sign in reversed(word))


def test_random_words_terminate_with_consistent_verdicts():
    """Seeded words at genus 2-5: every run gets a verdict, growth is at
    least the homology action's spectral radius, and a class and its
    inverse that both end as train tracks share growth and singularity
    data."""
    rng = random.Random(0)
    pairs = 0
    for _ in range(60):
        genus = rng.randint(2, 5)
        names = sorted(standard_generators(genus))
        word = tuple((rng.choice(names), rng.choice((1, -1)))
                     for _ in range(rng.randint(1, 10)))
        runs = [run_word(genus, w) for w in (word, _inverse(word))]
        for run in runs:
            if not isinstance(run.outcome, Reducible):
                assert run.report.growth >= oracles.h1_spectral_radius(
                    run.start) - 1e-9, word
        if all(isinstance(run.outcome, TrainTrack) for run in runs):
            pairs += 1
            first, second = (run.report for run in runs)
            assert first.growth == pytest.approx(second.growth, abs=1e-9)
            assert (sorted((p.k, p.index) for p in first.polygons)
                    == sorted((p.k, p.index) for p in second.polygons)), word
            assert first.puncture_index == second.puncture_index, word
    assert pairs >= 5


@pytest.mark.parametrize("name", sorted(REFERENCE_WORDS))
def test_inverse_and_square_keep_the_invariants(reference_runs, name):
    # phi and its inverse share verdict, dilatation and singularity data,
    # since the stable and unstable foliations swap; phi squared has the
    # square of the dilatation and the same data, and a conjugate h phi h^-1
    # has all of phi's (h is a seeded three-letter word)
    genus, word = REFERENCE_WORDS[name]
    first = reference_runs[name].report
    rng = random.Random(1)
    names = sorted(standard_generators(genus))
    h = tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(3))
    for other, power in ((run_word(genus, _inverse(word)).report, 1),
                         (run_word(genus, word + word).report, 2),
                         (run_word(genus, h + word + _inverse(h)).report, 1)):
        assert other.verdict == first.verdict, power
        if first.growth is None:
            assert other.growth is None
        else:
            assert other.growth == pytest.approx(first.growth ** power,
                                                 abs=1e-9)
        if first.verdict == "PseudoAnosov":
            assert (sorted((p.k, p.index) for p in other.polygons)
                    == sorted((p.k, p.index) for p in first.polygons))
            assert other.puncture_index == first.puncture_index


# a genus-3 word that used to end as a train track although its rotation by
# two letters, a conjugate, ends with an essential invariant subgraph
CONJUGATE_SPLIT_WORD = (
    ("d0", -1), ("d0", -1), ("a2", 1), ("a2", -1), ("c1", -1), ("d2", 1),
    ("a1", 1), ("c2", -1), ("c1", 1), ("d0", -1), ("d2", -1), ("d0", 1),
    ("d2", -1), ("c2", -1), ("d0", 1), ("d0", 1), ("a2", 1), ("a0", -1),
    ("d0", -1), ("d0", -1), ("a2", -1))


def test_verdict_is_conjugation_invariant():
    word = CONJUGATE_SPLIT_WORD
    first = run_word(3, word).outcome
    rotated = run_word(3, word[2:] + word[:2]).outcome
    assert type(first) is type(rotated)


def test_rotated_word_has_an_essential_invariant_subgraph():
    word = CONJUGATE_SPLIT_WORD
    outcome = run_word(3, word[2:] + word[:2]).outcome
    assert isinstance(outcome, Reducible)
    inv = set(outcome.invariant_edges)
    assert inv and inv < set(outcome.map.graph.edges)
    for e in inv:
        assert {abs(d) for d in outcome.map.image(e)} <= inv
    # a forest would have been collapsed: the witness carries a loop
    assert bh._contract(outcome.map.graph, inv) is None


def _random_word(rng, names, lo, hi):
    return tuple((rng.choice(names), rng.choice((1, -1)))
                 for _ in range(rng.randint(lo, hi)))


def test_conjugates_keep_the_invariants():
    """Seeded genus-2 and genus-3 words phi of 3-8 letters and conjugators h
    of 1-3 letters: when phi and h phi h^-1 both end PseudoAnosov, they
    share growth, the (k, index) multiset and the puncture index."""
    rng = random.Random(29)
    pairs = 0
    for _ in range(200):
        genus = rng.randint(2, 3)
        names = sorted(standard_generators(genus))
        word = _random_word(rng, names, 3, 8)
        h = _random_word(rng, names, 1, 3)
        first, second = (run_word(genus, w).report
                         for w in (word, h + word + _inverse(h)))
        if first.verdict == second.verdict == "PseudoAnosov":
            pairs += 1
            assert second.growth == pytest.approx(first.growth, rel=1e-9)
            assert (sorted((p.k, p.index) for p in first.polygons)
                    == sorted((p.k, p.index) for p in second.polygons)), word
            assert first.puncture_index == second.puncture_index, word
    assert pairs >= 25


@pytest.mark.xfail(strict=True, reason="the verdict depends on the fold path")
def test_conjugate_gets_the_same_verdict():
    # phi ends Reducible; its conjugate by h ends PseudoAnosov, growth 2.29663
    word = (("a1", -1), ("d1", 1), ("a0", 1), ("a0", -1), ("a1", -1),
            ("c0", 1), ("a1", 1))
    h = (("c1", 1), ("a0", -1), ("a1", -1))
    assert (run_word(2, word).report.verdict
            == run_word(2, h + word + _inverse(h)).report.verdict)


# genus-2 words whose final train track maps fix non-peripheral circuits (16
# and 24 of them, rotations and reversals counted, up to 6 letters): the
# classes are reducible, but train track maps do not yet get BH95's
# reducibility test
@pytest.mark.xfail(strict=True,
                   reason="TrainTrack outcomes are not tested for reducibility")
@pytest.mark.parametrize("word", [
    (("d0", -1), ("d0", 1), ("d1", -1), ("d0", -1), ("c0", 1)),
    (("c0", 1), ("c1", -1), ("c0", 1), ("d1", 1)),
], ids=["-d0 d0 -d1 -d0 c0", "c0 -c1 c0 d1"])
def test_train_track_outcome_fixes_no_circuit(word):
    outcome = run_word(2, word).outcome
    if isinstance(outcome, TrainTrack):
        assert oracles.fixed_circuits(outcome.map, 6, 1) == []


# the same defect in a seeded sample: 15 of these 60 words end TrainTrack,
# and the final maps of 2 of them fix a circuit of at most 4 letters
@pytest.mark.xfail(strict=True,
                   reason="TrainTrack outcomes are not tested for reducibility")
def test_random_train_track_outcomes_fix_no_circuit():
    rng = random.Random(2024)
    names = sorted(standard_generators(2))
    flagged = []
    for _ in range(60):
        word = [(rng.choice(names), rng.choice((1, -1)))
                for _ in range(rng.randint(2, 6))]
        outcome = run_word(2, word).outcome
        if (isinstance(outcome, TrainTrack)
                and oracles.fixed_circuits(outcome.map, 4, 1)):
            flagged.append(word)
    assert flagged == []


# ---------------------------------------------------------------------------
# Move-level invariants
# ---------------------------------------------------------------------------

def test_hook_snapshots_keep_surface_invariants(reference_runs):
    runs = list(reference_runs.values())
    runs.append(run_word(2, CHAIN_OF_FIVE_WORD, collect_snapshots=True))
    for run in runs:
        assert run.snapshots, "expected at least one elementary move"
        last_growth = spectral_radius(run.start.transition_matrix())
        for move, f, info in run.snapshots:
            assert move in MOVE_NAMES
            assert f.preserves_boundary()
            assert oracles.face_count(f.graph) == 1
            assert oracles.genus_via_euler(f.graph) == run.genus
            # EmbeddedGraph rejects a leaf, so no move can make one
            assert min(map(f.graph.valence, f.graph.vertices)) >= 2, move
            growth = spectral_radius(f.transition_matrix())
            assert growth <= last_growth + 1e-7, (run.word, move)
            last_growth = growth


def test_moves_reported_with_details(reference_runs):
    for name in REFERENCE_WORDS:
        for move, _f, info in reference_runs[name].snapshots:
            # a fold absorbs the subdivisions that prepare it
            assert move != "subdivide", name
            if move == "fold":
                assert {"edges", "into", "directions", "splits"} <= set(info)
                assert sorted(map(abs, info["directions"])) == info["edges"]
                for edge, at, into in info["splits"]:
                    assert at >= 1 and len(into) == 2, (name, edge)
            elif move == "collapse":
                assert "edges" in info


def _blockwise_radius(m):
    # the largest radius over the strongly connected blocks, one eigen-solve
    # per block that is neither 1x1 nor a permutation.  The blocks are
    # networkx's components of the crossing digraph (arc j -> i whenever
    # m[i, j] != 0), by smallest member, not growth's own split
    m = np.asarray(m, dtype=float)
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(len(m)))
    digraph.add_edges_from((j, i) for i, j in zip(*np.nonzero(m)))
    best = 0.0
    for c in sorted(map(sorted, nx.strongly_connected_components(digraph))):
        block = m[np.ix_(c, c)]
        if len(c) == 1 or is_permutation_matrix(block):
            radius = float(block.max())
        else:
            radius = float(np.abs(np.linalg.eigvals(block)).max())
        best = max(best, radius)
    return best


def test_spectral_radius_matches_the_blockwise_solve(reference_runs):
    # an irreducible matrix takes one eigen-solve of the whole matrix; the
    # answer must be exactly the blockwise one on every hook snapshot
    runs = dict(reference_runs)
    runs["cap1"] = run_word(2, CHAIN_OF_FIVE_WORD, collect_snapshots=True)
    seen = set()
    for name, run in runs.items():
        for move, f, _info in run.snapshots:
            m = f.transition_matrix()
            assert spectral_radius(m) == _blockwise_radius(m), (name, move)
            seen.add(is_irreducible(m))
    assert seen == {True, False}


def _kernel_agreement_maps(reference_runs):
    """The input map and hook snapshots of the empty word, ex1-ex5, cap1
    and seeded words at genus 2-5, then the final maps of the length-<= 3
    census."""
    runs = [run_word(2, (), collect_snapshots=True)]
    runs += reference_runs.values()
    runs.append(run_word(2, CHAIN_OF_FIVE_WORD, collect_snapshots=True))
    rng = random.Random(39)
    for genus in (2, 3, 4, 5):
        names = sorted(standard_generators(genus))
        for _ in range(6):
            word = [(rng.choice(names), rng.choice((1, -1)))
                    for _ in range(rng.randint(8, 14))]
            runs.append(run_word(genus, word, collect_snapshots=True))
    maps = [f for run in runs
            for f in [run.start] + [f for _move, f, _info in run.snapshots]]
    return maps + [run.final for runs in census_runs(3).values()
                   for run in runs]


def test_small_map_kernels_agree_with_numpy(reference_runs):
    # bh reads a map of at most bh._SMALL_MAP letters as rows of Python ints
    # and a larger one as a NumPy array.  growth decides irreducibility on
    # either form by its own closure, and permutations and sinks on rows,
    # reading an array with .tolist(); both forms run on every map here,
    # whatever its size
    sides, seen = {True: 0, False: 0}, set()
    for f in _kernel_agreement_maps(reference_runs):
        m = f.transition_matrix()
        rows = bh._count_rows(f, sorted(f.graph.edges))
        assert rows == m.tolist()
        irreducible = is_irreducible(rows)
        assert irreducible == is_irreducible(m)
        assert growth.sink_components(rows) == growth.sink_components(m)
        assert is_permutation_matrix(rows) == is_permutation_matrix(m)
        sides[sum(map(len, f.edge_image.values())) <= bh._SMALL_MAP] += 1
        seen.add((irreducible, is_permutation_matrix(rows)))
    # both sides of the bound, and each pairing of the two decisions
    assert sides[True] > 1000 and sides[False] > 400
    assert len(seen) == 4


def test_only_large_maps_build_the_numpy_matrix(monkeypatch):
    # the loop reads a map of at most bh._SMALL_MAP letters as rows, in
    # _simplify and in the valence-two comparison alike, so such a map
    # never builds its NumPy transition matrix
    starts = [compose_word(genus, list(word))
              for genus, word in REFERENCE_WORDS.values()]
    built, forms = [], []
    matrix, radius = GraphSelfMap.transition_matrix, bh.spectral_radius
    vector = bh._perron_vector
    monkeypatch.setattr(
        GraphSelfMap, "transition_matrix",
        lambda f: built.append(sum(map(len, f.edge_image.values())))
        or matrix(f))
    monkeypatch.setattr(bh, "spectral_radius",
                        lambda m: forms.append(type(m)) or radius(m))
    monkeypatch.setattr(bh, "_perron_vector",
                        lambda m: forms.append(type(m)) or vector(m))
    for f in starts:
        bestvina_handel(f)
    assert built and min(built) > bh._SMALL_MAP
    # λ and Perron-Frobenius vectors were read from both forms
    assert set(forms) == {list, np.ndarray}


def test_fold_events_replay_as_public_moves(reference_runs):
    # each fold event, replayed as the subdivisions it records, each built
    # as one move, and a fold of the map they give, rebuilds the event's
    # map from the one before it.  The event's directions (d1, d2) are a
    # rotation corner of the subdivided map: d2 is d1's successor
    runs = dict(reference_runs)
    runs["cap1"] = run_word(2, CHAIN_OF_FIVE_WORD, collect_snapshots=True)
    folds = 0
    for name, run in runs.items():
        before = run.start
        for move, f, info in run.snapshots:
            if move == "fold":
                g = before
                for edge, at, into in info["splits"]:
                    g = _split(g, edge, at)
                    assert sorted(g.graph.edges)[-2:] == list(into), name
                d1, d2 = info["directions"]
                assert g.graph.successor(d1) == d2, (name, folds)
                g = bh._fold(bh._Subdivision(g), d1, d2)[0]
                assert oracles.maps_equal(g, f), (name, folds)
                folds += 1
            before = f
    assert folds > 100


def _hook_stream_words():
    """ex1-ex5, cap1 and 120 seeded genus-2 and genus-3 words."""
    words = list(REFERENCE_WORDS.values()) + [(2, CHAIN_OF_FIVE_WORD)]
    rng = random.Random(15)
    for _ in range(120):
        genus = rng.randint(2, 3)
        names = sorted(standard_generators(genus))
        words.append((genus, tuple((rng.choice(names), rng.choice((1, -1)))
                                   for _ in range(rng.randint(4, 12)))))
    return words


# SHA-256 of every hook snapshot and final report of _hook_stream_words()
HOOK_STREAM_SHA256 = (
    "603ac7384f929ee27d62a3adcafc6d84191f46cadf121aad3d03b9e9d5ecd4c8")


def test_hook_stream_is_pinned(monkeypatch):
    # every move's name, details, graph, vertex map and images, then each
    # final report, hashed: a refactor of the moves must keep them all.
    # The words must reach the x phase (a split that takes the turn's last
    # occurrence hands the turn to the split's vertex) and collapse forests
    takes = []
    original = bh._Subdivision.takes
    monkeypatch.setattr(bh._Subdivision, "takes", lambda prep, a, b: (
        takes.append(original(prep, a, b)) or takes[-1]))
    digest = hashlib.sha256()
    moves = []
    for genus, word in _hook_stream_words():
        run = run_word(genus, word, collect_snapshots=True)
        for move, f, info in run.snapshots:
            moves.append(move)
            digest.update(repr((
                move, sorted(info.items()), sorted(f.graph.edges.items()),
                f.graph.rho, sorted(f.vertex_image.items()),
                sorted(f.edge_image.items()))).encode())
        rep = run.report
        digest.update(repr((
            rep.verdict,
            None if rep.growth is None else f"{rep.growth:.9f}",
            None if rep.polygons is None else [(p.vertex, p.k)
                                               for p in rep.polygons],
            rep.orbit, rep.puncture_index)).encode())
    assert takes.count(False) > 10
    assert moves.count("collapse") > 10
    assert digest.hexdigest() == HOOK_STREAM_SHA256


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

def _split(f, e, k):
    """``f`` with edge ``e`` split at position ``k`` of its image, as a fold
    pass splits it, built as one move; building checks that the genus and
    the boundary word are kept."""
    prep = bh._Subdivision(f)
    prep.split(e, k)
    return bh._rebuild("split", prep, {}, {}, prep.rho)


def _merge_lowest(f):
    """``f`` with its lowest-id valence-two vertex removed, as the loop
    removes it."""
    g = f.graph
    return bh._merge_through(f, min(v for v in g.vertices
                                    if g.valence(v) == 2))


def test_subdivide_preserves_dynamics():
    f = compose_word(2, [("d0", 1), ("c0", 1), ("d1", 1)])
    lam = spectral_radius(f.transition_matrix())
    edge = next(e for e in sorted(f.graph.edges) if len(f.image(e)) >= 2)
    g = _split(f, edge, 1)
    assert len(g.graph.edges) == len(f.graph.edges) + 1
    assert g.preserves_boundary()
    assert oracles.genus_via_euler(g.graph) == 2
    assert spectral_radius(g.transition_matrix()) == pytest.approx(
        lam, abs=1e-8)
    # the new valence-two vertex can be removed again
    h = _merge_lowest(g)
    assert len(h.graph.edges) == len(f.graph.edges)
    assert spectral_radius(h.transition_matrix()) == pytest.approx(
        lam, abs=1e-8)
    # removing it gives f back exactly, for every split point.  A second
    # split whose vertex maps onto the first split's vertex z makes the
    # removal of z build both collapse sides; removing the second vertex
    # after z must give f back too
    second = 0
    for e, k in _split_points(f):
        g = _split(f, e, k)
        assert _same_map_up_to_edge_names(f, _merge_lowest(g))
        z = max(g.graph.vertices)
        for e2, k2 in _split_points(g):
            if g.graph.head(g.edge_image[e2][k2 - 1]) != z:
                continue
            h = _merge_lowest(_merge_lowest(_split(g, e2, k2)))
            assert _same_map_up_to_edge_names(f, h), (e, k, e2, k2)
            second += 1
    assert second > 0


def test_subdivision_matches_chained_subdivide(reference_runs):
    # a _Subdivision spells the subdivided map in its own letters; after
    # several seeded splits, built once, it is the map that the same splits
    # give one at a time, each built as one move.  Each split keeps
    # ``length`` letters for a direction d of either sign, as a fold pass
    # does, and the splits reach fresh halves and edges that other images
    # cross only reversed.  After every split the draft reads each
    # direction's tail, head and image as the built map does, and a split
    # edge is unknown to both
    rng = random.Random(20)
    fresh = reversed_only = 0
    for name in REFERENCE_WORDS:
        for _move, f, _info in reference_runs[name].snapshots:
            prep, g = bh._Subdivision(f), f
            for _ in range(4):
                dirs = [d for e in sorted(prep.edge_image) for d in (e, -e)
                        if len(prep.edge_image[e]) > 1]
                if not dirs:
                    break
                d = rng.choice(dirs)
                e = abs(d)
                p = prep.image(e)
                length = rng.randrange(1, len(p))
                k = length if d > 0 else len(p) - length
                fresh += e not in f.graph.edges
                reversed_only += any(-e in q and e not in q
                                     for q in prep.edge_image.values())
                prep.split(e, k)
                g = _split(g, e, k)
                for c in g.graph.edges:
                    for d in (c, -c):
                        assert (prep.tail(d), prep.head(d), prep.image(d)) == (
                            g.graph.tail(d), g.graph.head(d), g.image(d)), name
                for reader in (prep.tail, prep.head,
                               g.graph.tail, g.graph.head):
                    for d in (e, -e):
                        with pytest.raises(GraphStructureError):
                            reader(d)
            built = bh._rebuild("subdivide", prep, {}, {}, prep.rho)
            assert oracles.maps_equal(built, g), name
    assert fresh > 0 and reversed_only > 0


def test_rebuild_rejects_a_merge_of_vertices_with_different_images(
        reference_runs):
    f = next(f for _move, f, _info in reference_runs["ex3"].snapshots
             if len(f.graph.vertices) == 5)
    # joining 4 to 0 would need f(4) = 3 and f(0) = 0 to join too
    assert (f.vertex_image[4], f.vertex_image[0]) == (3, 0)
    with pytest.raises(InternalInvariantError,
                       match="^fold merged vertices with different images$"):
        bh._rebuild("fold", bh._Subdivision(f), {}, {4: 0}, f.graph.rho)


def test_rebuild_rejects_a_change_of_genus():
    # dropping a handle of the genus-2 rose leaves a genus-1 spine
    f = oracles.identity(standard_rose(2))
    with pytest.raises(InternalInvariantError,
                       match="^collapse changed the genus$"):
        bh._rebuild("collapse", bh._Subdivision(f),
                    {d: () for d in (1, -1, 2, -2)}, {}, f.graph.rho)


def test_rebuild_rejects_a_broken_boundary_word():
    # on the genus-2 rose, whose boundary word is 1 2 -1 -2 3 4 -3 -4,
    # sending edge 1 to (1, 2) keeps that word and sending it to (1, 3)
    # does not
    f = oracles.identity(standard_rose(2))
    prep = bh._Subdivision(f)
    prep.edge_image[1] = (1, 2)
    assert bh._rebuild("fold", prep, {}, {}, prep.rho).edge_image[1] == (1, 2)
    prep.edge_image[1] = (1, 3)
    with pytest.raises(InternalInvariantError,
                       match="^fold broke the boundary word$"):
        bh._rebuild("fold", prep, {}, {}, prep.rho)


def _split_points(f):
    return [(e, k) for e in sorted(f.graph.edges)
            for k in range(1, len(f.edge_image[e]))]


def _same_map_up_to_edge_names(f, h):
    """Whether ``h`` is ``f`` with its edges renamed, the renaming read off
    by aligning the two boundary words."""
    rho, other = f.graph.rho, h.graph.rho
    if len(rho) != len(other):
        return False
    for k in range(len(other)):
        rename = dict(zip(rho, other[k:] + other[:k]))
        if any(rename[-d] != -r for d, r in rename.items()):
            continue
        vertex = {f.graph.tail(d): h.graph.tail(r) for d, r in rename.items()}
        if (all(h.image(rename[e]) == tuple(rename[d] for d in p)
                for e, p in f.edge_image.items())
                and all(h.vertex_image[vertex[u]] == vertex[w]
                        for u, w in f.vertex_image.items())):
            return True
    return False


def _seeded_snapshots(count):
    """The hook snapshots of ``count`` seeded genus-2 and genus-3 words."""
    rng = random.Random(11)
    maps = []
    for _ in range(count):
        genus = rng.randint(2, 3)
        names = sorted(standard_generators(genus))
        word = [(rng.choice(names), rng.choice((1, -1)))
                for _ in range(rng.randint(3, 8))]
        run = run_word(genus, word, collect_snapshots=True)
        maps += [f for _move, f, _info in run.snapshots]
    return maps


def _valence_two_side(f, v, collapse):
    edges, rho, vertex_image, images = oracles.valence_two_side(f, v,
                                                                collapse)
    return GraphSelfMap(EmbeddedGraph(edges, rho), vertex_image, images)


def test_valence_two_sides_differ_by_a_slide(monkeypatch):
    # the two collapses at v are homotopic relative to every vertex but v:
    # they differ by a slide along m, so only in row m of the transition
    # matrix.  The move compares the |b| side's matrix with that row
    # recounted for the |a| side, and builds the kept side by its own table:
    # each matrix and map must be the oracle's side exactly.  A row m of the
    # |a| side that dominates the |b| side's keeps |b| with no eigen-solve.
    # Seeded snapshots and twice subdivided maps give valence-two vertices
    # that another vertex maps onto
    maps = _seeded_snapshots(40)
    f = compose_word(2, [("d0", 1), ("c0", 1), ("d1", 1)])
    for e, k in _split_points(f):
        g = _split(f, e, k)
        z = max(g.graph.vertices)
        maps += [_split(g, e2, k2) for e2, k2 in _split_points(g)
                 if g.graph.head(g.edge_image[e2][k2 - 1]) == z]
    kept_sides, dominated = [], 0
    for f in maps:
        two = [v for v in f.graph.vertices if f.graph.valence(v) == 2]
        for v in two:
            if not any(w == v != z for z, w in f.vertex_image.items()):
                continue
            side_b, side_a = (_valence_two_side(f, v, c) for c in "ba")
            lam_b, lam_a = (spectral_radius(h.transition_matrix())
                            for h in (side_b, side_a))
            # the smaller growth is kept, and ties keep the |b| side
            kept = "b" if lam_b <= lam_a + 1e-12 else "a"
            want = side_b if kept == "b" else side_a
            assert oracles.maps_equal(bh._merge_through(f, v), want)
            kept_sides.append(kept)
            # make the |a| side win where row m leaves it open, so the move
            # builds it: a Perron-Frobenius vector with a negative entry
            # decides nothing, and the radii rank |b| above |a|
            seen = []
            with monkeypatch.context() as patch:
                patch.setattr(bh, "_perron_vector",
                              lambda m: [-1.0] * len(m))
                # row m of either matrix form is written in place after
                # the first call, so keep a deep copy
                patch.setattr(bh, "spectral_radius",
                              lambda m: seen.append(np.array(m)) or -len(seen))
                derived = bh._merge_through(f, v)
            matrices = [h.transition_matrix() for h in (side_b, side_a)]
            if (matrices[1] >= matrices[0]).all():
                dominated += 1
                assert oracles.maps_equal(derived, side_b) and not seen
                continue
            assert oracles.maps_equal(derived, side_a)
            assert [m.tolist() for m in seen] == [m.tolist() for m in matrices]
    assert kept_sides.count("a") > 10 and kept_sides.count("b") > 100
    assert 0 < dominated < len(kept_sides) - 100


def _classify_long_word(index):
    """Word ``w<index>`` of the classify-long corpus, drawn as
    ``benchmarks/corpus.py`` draws it: genus 2-3, length 16-24, from a stream
    seeded with the workload's name."""
    draw = random.Random("classify-long")
    for _ in range(index + 1):
        genus, length = draw.randint(2, 3), draw.randint(16, 24)
        names = sorted(standard_generators(genus))
        word = [(draw.choice(names), draw.choice((1, -1)))
                for _ in range(length)]
    return genus, word


def test_valence_two_comparison_steps_keep_the_two_solve_side(
        monkeypatch, reference_runs):
    # the move keeps |b| without an eigen-solve when row m of A dominates
    # row m of B (step 1), after one solve of B when B's Perron-Frobenius
    # vector shows λ(A) >= λ(B) (step 2), and otherwise compares
    # both spectral radii (step 3).  On every valence-two vertex that
    # another vertex maps onto, in the kernel agreement maps and the hook
    # snapshots of classify-long's w57, the kept side must be the one the
    # two-solve rule keeps.  |a| can only win in step 3, and each step
    # decides many comparisons, some of them near ties
    run = run_word(*_classify_long_word(57), collect_snapshots=True)
    maps = _kernel_agreement_maps(reference_runs) + [run.start] + [
        f for _move, f, _info in run.snapshots]
    calls = []
    vector, radius = bh._perron_vector, bh.spectral_radius
    monkeypatch.setattr(bh, "_perron_vector",
                        lambda m: calls.append(2) or vector(m))
    monkeypatch.setattr(bh, "spectral_radius",
                        lambda m: calls.append(3) or radius(m))
    decided = {1: 0, 2: 0, 3: 0}
    wins_a = near_ties = 0
    for f in maps:
        for v in f.graph.vertices:
            if f.graph.valence(v) != 2 or not any(
                    w == v != z for z, w in f.vertex_image.items()):
                continue
            calls.clear()
            kept = bh._merge_through(f, v)
            step = max(calls, default=1)
            decided[step] += 1
            side_b, side_a = (_valence_two_side(f, v, c) for c in "ba")
            lam_b, lam_a = (radius(h.transition_matrix())
                            for h in (side_b, side_a))
            if lam_b <= lam_a + 1e-12:
                assert oracles.maps_equal(kept, side_b), (step, v)
                near_ties += step < 3 and abs(lam_b - lam_a) <= 1e-9
            else:
                assert step == 3 and oracles.maps_equal(kept, side_a), v
                wins_a += 1
    assert decided[1] > 15 and decided[2] > 400 and decided[3] > 100
    assert wins_a > 30 and near_ties > 0


def test_valence_two_tables_cancel_nothing(reference_runs):
    # _merge_through reads row m of the |a| side as how often each image
    # crosses b.  That holds because neither collapse table makes a
    # backtrack at a valence-two vertex: a tight path passes it only as
    # (-a, b) or (-b, a).  Pinned on every valence-two vertex of every hook
    # snapshot, for the images of f's edges and of m
    runs = dict(reference_runs)
    runs["cap1"] = run_word(2, CHAIN_OF_FIVE_WORD, collect_snapshots=True)
    checked = 0
    for name, run in runs.items():
        for _move, f, _info in run.snapshots:
            g = f.graph
            for v in g.vertices:
                if g.valence(v) != 2:
                    continue
                a, b = g.rotation_order(v)
                m = max(g.edges) + 1
                paths = [*f.edge_image.values(),
                         _path_image(f.edge_image, (-a, b))]
                for table in ({b: (), -b: (), -a: (m,), a: (-m,)},
                              {a: (), -a: (), b: (m,), -b: (-m,)}):
                    for p in paths:
                        assert substitute(p, table) == tuple(
                            bh._subst(p, table)), (name, v, p)
                checked += 1
    assert checked > 200


def test_gates_match_plain_iteration(reference_runs):
    maps = [f for run in reference_runs.values()
            for _move, f, _info in run.snapshots]
    maps += _seeded_snapshots(40)
    checked = 0
    for f in maps:
        if all(f.edge_image.values()):
            assert bh.gates(f) == oracles.gates_by_iteration(f)
            checked += 1
    assert checked > 400


def test_gate_map_keeps_the_gates_at_a_vertex_apart(reference_runs):
    # infinitesimal_edges closes the taken pairs under the gate map without
    # checking that each image pair still joins two gates; this is why
    runs = dict(reference_runs)
    runs["cap1"] = run_word(2, CHAIN_OF_FIVE_WORD, collect_snapshots=True)
    checked = 0
    for name, run in runs.items():
        for move, f, _info in run.snapshots:
            if all(f.edge_image.values()):
                assert gate_map_keeps_gates_apart(f), (name, move)
                checked += 1
    assert checked > 150


def test_collapse_trivial_edge():
    # a genus-2 spine: loops 1 and 2 at vertex 0, loops 3 and 4 at vertex 1
    # and edge 5 between them, both ends of valence five.  The map swaps
    # the handles and sends 5 to a point, so {5} is an invariant forest
    g = EmbeddedGraph({1: (0, 0), 2: (0, 0), 3: (1, 1), 4: (1, 1),
                       5: (0, 1)}, (1, 2, -1, -2, 5, 3, 4, -3, -4, -5))
    assert min(map(g.valence, g.vertices)) >= 3
    f = GraphSelfMap(g, {0: 0, 1: 0}, {1: (5, 3, -5), 2: (5, 4, -5),
                                       3: (1,), 4: (2,), 5: ()})
    moves = []
    outcome = bestvina_handel(
        f, hook=lambda name, g, **info: moves.append((name, info, g)))
    [(name, info, g)] = moves
    assert (name, info) == ("collapse", {"edges": [5]})
    assert sorted(g.graph.edges) == [1, 2, 3, 4]
    assert g.edge_image == {1: (3,), 2: (4,), 3: (1,), 4: (2,)}
    assert g.preserves_boundary()
    assert isinstance(outcome, GrowthOne)
    assert outcome.map is g


# a genus-1 spine: the rose's two loops at vertex 0 and an edge 3 out to the
# leaf vertex 1
LEAF_GRAPH = ({1: (0, 0), 2: (0, 0), 3: (0, 1)}, (1, 2, -1, -2, 3, -3))


def test_a_leaf_is_rejected():
    # the train track algorithm runs on spines without leaves, and
    # EmbeddedGraph is where that is decided, so no map on one is built
    with pytest.raises(GraphStructureError,
                       match="^vertex 1 has valence one$"):
        EmbeddedGraph(*LEAF_GRAPH)


def test_leaf_goes_before_a_valence_two_vertex():
    # edge 3 split at one letter has halves 4 = (0, 2) and 5 = (2, 1): the
    # leaf 1 and the valence-two vertex 2 at once.  The leaf is rejected as
    # the graph is built, so no move sees it.  Relabelled so that the
    # valence-two vertex has the lower id, the leaf is named too
    for edges, leaf in (({4: (0, 2), 5: (2, 1)}, 1),
                        ({4: (0, 1), 5: (1, 2)}, 2)):
        with pytest.raises(GraphStructureError,
                           match=f"^vertex {leaf} has valence one$"):
            EmbeddedGraph({1: (0, 0), 2: (0, 0), **edges},
                          (1, 2, -1, -2, 4, 5, -5, -4))


def test_fold_rejects_parallel_pair():
    # edges 1 and 2 join the same two vertices; folding them would seal the
    # strip between them.  A homotopy equivalence never gives them one image,
    # so fold preparation relies on this guard rather than testing for it
    g = EmbeddedGraph({1: (0, 1), 2: (0, 1), 3: (0, 1)}, (1, -2, 3, -1, 2, -3))
    f = GraphSelfMap(g, {0: 0, 1: 1}, {1: (1,), 2: (1,), 3: (3,)})
    with pytest.raises(InternalInvariantError, match="parallel fold"):
        bh._fold(bh._Subdivision(f), 1, 2)


def test_fold_names_the_broken_precondition():
    # the rose's rotation at its vertex is (-4, -3, 4, 1, -2, -1, 2, 3), so
    # (2, 3) is a corner and (3, 2) is not.  1 and 3 share the image (1,),
    # but no corner of the rose joins them
    f = GraphSelfMap(standard_rose(2), {0: 0},
                     {1: (1,), 2: (2,), 3: (1,), 4: (4,)})
    for d1, d2, message in [
            (1, -1, "fold needs d2 to follow d1"),
            (2, 3, "fold needs equal nonempty images"),
            (3, 2, "fold needs d2 to follow d1"),
            (1, 3, "fold needs d2 to follow d1"),
            (1, 9, "fold needs d2 to follow d1")]:
        with pytest.raises(InternalInvariantError, match=f"^{message}$"):
            bh._fold(bh._Subdivision(f), d1, d2)
    with pytest.raises(GraphStructureError,
                       match="^unknown edge in direction 9$"):
        bh._fold(bh._Subdivision(f), 9, 1)
    # 1 leaves vertex 0 and -2 leaves vertex 1: no corner holds both
    g = EmbeddedGraph({1: (0, 1), 2: (0, 1), 3: (0, 1)}, (1, -2, 3, -1, 2, -3))
    f = GraphSelfMap(g, {0: 0, 1: 1}, {1: (1,), 2: (2,), 3: (3,)})
    with pytest.raises(InternalInvariantError,
                       match="^fold needs d2 to follow d1$"):
        bh._fold(bh._Subdivision(f), 1, -2)
