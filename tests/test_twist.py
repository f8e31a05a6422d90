"""Dehn twist construction and word composition."""
from __future__ import annotations

import math
import random
from collections import Counter
from itertools import chain

import numpy as np
import pytest

from traintrack import (
    CurveNotRealizable,
    EmbeddedGraph,
    GraphSelfMap,
    GraphStructureError,
    GrowthOne,
    MapCompatibilityError,
    Reducible,
    TrainTrack,
    bestvina_handel,
    compose_word,
    dehn_twist,
    graphs,
    reverse_path,
    standard_generators,
    standard_rose,
    tighten,
    twist,
)

import oracles
from conftest import REFERENCE_WORDS, run_word


@pytest.fixture(scope="module")
def rose2():
    return standard_rose(2)


@pytest.fixture(scope="module")
def gens2():
    return standard_generators(2)


# ---------------------------------------------------------------------------
# Generator systems
# ---------------------------------------------------------------------------

def test_generator_names_by_genus():
    assert set(standard_generators(2)) == {"a0", "a1", "d0", "d1", "c0", "c1"}
    assert set(standard_generators(3)) == {
        "a0", "a1", "a2", "d0", "d1", "d2", "c0", "c1", "c2"}


def test_generator_words_are_pinned():
    g2 = standard_generators(2)
    assert g2["a0"] == (1,)
    assert g2["a1"] == (3,)
    assert g2["d0"] == (2,)
    assert g2["d1"] == (4,)
    assert g2["c0"] == (1, 3)
    assert g2["c1"] == (-2, 3)
    g3 = standard_generators(3)
    assert g3["c0"] == (-2, 3, 5)
    assert g3["c1"] == (-4, 5, 1)
    assert g3["c2"] == (-2, 3)


def test_genus_one_verdicts_follow_the_trace():
    """a0 and d0 generate Mod(S_1,1) = SL(2, Z), where the trace t of the
    homology action decides the class: |t| > 2 is Anosov with dilatation
    (|t| + sqrt(t^2 - 4)) / 2, |t| = 2 fixes a curve (reducible) unless the
    class is +-I, and |t| < 2 has finite order."""
    assert set(standard_generators(1)) == {"a0", "d0"}
    with pytest.raises(GraphStructureError):
        standard_generators(0)
    rng = random.Random(1)
    seen = set()
    for _ in range(600):
        word = [(rng.choice(("a0", "d0")), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 12))]
        f = compose_word(1, word)
        a = oracles.abelianization(f)
        t = int(np.trace(a))
        outcome = bestvina_handel(f)
        if abs(t) > 2:
            kind = TrainTrack
            assert outcome.growth == pytest.approx(
                (abs(t) + math.sqrt(t * t - 4)) / 2, abs=1e-12), word
        elif (a == np.eye(2, dtype=int)).all():
            kind = GrowthOne
        elif (a == -np.eye(2, dtype=int)).all():
            # the hyperelliptic involution is periodic and fixes every
            # curve, and the fold path decides which verdict it gets
            kind = (GrowthOne, Reducible)
        elif abs(t) == 2:
            kind = Reducible
        else:
            kind = GrowthOne
        assert isinstance(outcome, kind), (word, t)
        seen.add(max(-3, min(3, t)))
    assert seen == {-3, -2, -1, 0, 1, 2, 3}


# ---------------------------------------------------------------------------
# Single twists
# ---------------------------------------------------------------------------

def test_twist_preserves_boundary(rose2, gens2):
    for name, curve in gens2.items():
        for sign in (1, -1):
            f = dehn_twist(rose2, curve, sign)
            assert f.preserves_boundary(), name


def test_twist_is_identity_on_homology_except_transvection(rose2, gens2):
    j = oracles.symplectic_form(2)
    for name, curve in gens2.items():
        a = oracles.abelianization(dehn_twist(rose2, curve, 1))
        n = a - np.eye(4, dtype=int)
        assert np.array_equal(n @ n, np.zeros((4, 4), dtype=int)), name
        assert oracles.is_symplectic(a, j), name
        assert round(float(np.linalg.det(a.astype(float)))) == 1, name


def test_opposite_signs_are_inverse_on_homology(rose2, gens2):
    for curve in gens2.values():
        a_pos = oracles.abelianization(dehn_twist(rose2, curve, 1))
        a_neg = oracles.abelianization(dehn_twist(rose2, curve, -1))
        assert np.array_equal(a_pos @ a_neg, np.eye(4, dtype=int))


def test_twist_power_is_repeated_transvection(rose2, gens2):
    curve = gens2["c0"]
    once = oracles.abelianization(dehn_twist(rose2, curve, 1))
    twice = oracles.abelianization(
        oracles.compose(dehn_twist(rose2, curve, 1),
                        dehn_twist(rose2, curve, 1)))
    assert np.array_equal(twice, once @ once)


def test_unrealizable_curves(rose2):
    # a repeated direction and a backtrack each put one direction into two
    # visits
    with pytest.raises(CurveNotRealizable,
                       match="^two curve strands share a direction$"):
        dehn_twist(rose2, (1, 1))
    with pytest.raises(CurveNotRealizable,
                       match="^two curve strands share a direction$"):
        dehn_twist(rose2, (1, -1))
    # every letter is checked before the walk, so an unknown edge after a
    # known one is reported as such
    for word in ((9,), (1, 9), (1, -9)):
        with pytest.raises(CurveNotRealizable,
                           match="^curve uses unknown edge 9$"):
            dehn_twist(rose2, word)
    with pytest.raises(CurveNotRealizable,
                       match="^a curve needs at least one edge$"):
        dehn_twist(rose2, ())
    # edge 1 runs between the two vertices of a theta graph
    theta = EmbeddedGraph({1: (0, 1), 2: (1, 0), 3: (0, 1)},
                          (1, 2, 3, -1, -2, -3))
    with pytest.raises(CurveNotRealizable,
                       match="^curve word is not a closed walk$"):
        dehn_twist(theta, (1,))
    # the commutator uses edges 1 and 2 both ways: it leaves along 2 and
    # later arrives along -2, so the direction 2 serves two strands
    with pytest.raises(CurveNotRealizable,
                       match="^two curve strands share a direction$"):
        dehn_twist(rose2, (1, 2, -1, -2))
    with pytest.raises(ValueError,
                       match=r"^twist sign must be \+1 or -1, got 2$"):
        dehn_twist(rose2, (1,), sign=2)
    # the sector walk rejects a crossing and a nesting alike: in each, one
    # strand has a germ inside the other's sector
    for word in ((1, 4), (1, 2)):
        with pytest.raises(CurveNotRealizable,
                           match="^curve strands cross or nest inside a "
                           "twisting sector at vertex 0$"):
            dehn_twist(rose2, word)


def test_random_closed_walks_twist_or_are_rejected(reference_runs):
    # seeded closed walks on the genus 1-3 roses and the final graphs of
    # ex1, ex3 and ex4.  Every rejection is CurveNotRealizable, the
    # twisting sectors of every accepted curve are pairwise disjoint and
    # hold no chord germ, which _twist_sectors relies on without a check,
    # and every image is tight as dehn_twist builds it
    graphs = [standard_rose(genus) for genus in (1, 2, 3)]
    graphs += [reference_runs[name].final.graph
               for name in ("ex1", "ex3", "ex4")]
    rng = random.Random(5)
    accepted = 0
    rejected = Counter()
    for _ in range(30000):
        graph = rng.choice(graphs)
        start = at = rng.choice(graph.vertices)
        walk = []
        for _ in range(rng.randint(1, 6)):
            walk.append(rng.choice(sorted(graph.rotation_order(at))))
            at = graph.head(walk[-1])
        if at != start:
            continue
        try:
            f = dehn_twist(graph, walk, rng.choice((1, -1)))
        except CurveNotRealizable as err:
            rejected[str(err).split(" at vertex")[0]] += 1
            continue
        accepted += 1
        assert all(tighten(p) == p for p in f.edge_image.values()), walk
        chords = {d for i, out in enumerate(walk) for d in (-walk[i - 1], out)}
        arcs = [graph.arc(-walk[i - 1], out) for i, out in enumerate(walk)]
        assert all(chords.isdisjoint(arc) for arc in arcs), walk
        sector_of = twist._twist_sectors(graph, walk)
        assert sector_of == {d: i for i, arc in enumerate(arcs) for d in arc}
        assert len(sector_of) == sum(map(len, arcs)), walk
    assert accepted == 3762
    assert rejected == {
        "two curve strands share a direction": 12286,
        "curve strands cross or nest inside a twisting sector": 2962}


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def test_empty_word_is_identity(rose2):
    f = compose_word(2, [])
    assert oracles.maps_equal(f, oracles.identity(rose2))


def test_single_letter_matches_dehn_twist(rose2, gens2):
    for name in sorted(gens2):
        for sign in (1, -1):
            via_word = compose_word(2, [(name, sign)])
            direct = dehn_twist(rose2, gens2[name], sign)
            assert oracles.maps_equal(via_word, direct)


def test_leftmost_letter_acts_last(rose2, gens2):
    # a0 and d0 intersect once, so their twists do not commute and the
    # two composition orders are distinguishable
    word = [("a0", 1), ("d0", 1)]
    via_word = compose_word(2, word)
    outer = dehn_twist(rose2, gens2["a0"], 1)
    inner = dehn_twist(rose2, gens2["d0"], 1)
    assert oracles.maps_equal(via_word, oracles.compose(outer, inner))
    assert not oracles.maps_equal(via_word, oracles.compose(inner, outer))


def test_inverse_pair_cancels_to_identity(rose2):
    for name in ("a0", "d1", "c0"):
        f = compose_word(2, [(name, 1), (name, -1)])
        assert oracles.maps_equal(f, oracles.identity(rose2))


def test_composition_is_associative(rose2, gens2):
    fa = dehn_twist(rose2, gens2["a1"], 1)
    fc = dehn_twist(rose2, gens2["c0"], 1)
    fd = dehn_twist(rose2, gens2["d0"], -1)
    left = oracles.compose(oracles.compose(fa, fc), fd)
    right = oracles.compose(fa, oracles.compose(fc, fd))
    assert oracles.maps_equal(left, right)
    via_word = compose_word(2, [("a1", 1), ("c0", 1), ("d0", -1)])
    assert oracles.maps_equal(via_word, left)


def test_unknown_generator_name(monkeypatch):
    have2 = r"\(have: a0, a1, c0, c1, d0, d1\)"
    with pytest.raises(ValueError,
                       match=f"^unknown generator 'b0' at genus 2 {have2}$"):
        compose_word(2, [("b0", 1)])
    # no chain curve fits on one handle
    with pytest.raises(ValueError, match=r"^unknown generator 'c0' at genus 1 "
                                         r"\(have: a0, d0\)$"):
        compose_word(1, [("c0", 1)])
    # after a valid prefix: every name is looked up before anything is
    # composed, so the prefix is never spliced
    compose_word(2, [("a0", 1)])

    def no_splice(images, path):
        raise AssertionError("spliced before every name was looked up")

    monkeypatch.setattr(twist, "_path_image", no_splice)
    with pytest.raises(ValueError,
                       match=f"^unknown generator 'b0' at genus 2 {have2}$"):
        compose_word(2, [("a0", 1)] * 20 + [("b0", 1)])


def _uncached_word(genus, word):
    """``compose_word`` from freshly built twists, with no shared state,
    validating every composite along the way."""
    rose, curves = standard_rose(genus), standard_generators(genus)
    f = oracles.identity(rose)
    for name, sign in word:
        f = oracles.compose(f, dehn_twist(rose, curves[name], sign))
    return f


def test_shared_generator_twists_match_fresh_builds():
    # the whole pipeline first, so that every later word finds its
    # generator twists already built
    for genus, word in REFERENCE_WORDS.values():
        run_word(genus, word)
    rng = random.Random(16)
    for genus in range(1, 6):
        rose, curves = standard_rose(genus), standard_generators(genus)
        names = sorted(curves)
        for name in names:
            for sign in (1, -1):
                assert oracles.maps_equal(
                    compose_word(genus, [(name, sign)]),
                    dehn_twist(rose, curves[name], sign)), (genus, name, sign)
        # the empty word, ten seeded words of length up to 20, three of
        # a-twists alone (whose conjugators pile up) and the reference
        # words, each with its inverse
        a_names = [n for n in names if n.startswith("a")]
        words = [[]] + [[(rng.choice(names), rng.choice((1, -1)))
                         for _ in range(rng.randint(1, 20))]
                        for _ in range(10)]
        words += [[(rng.choice(a_names), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 20))] for _ in range(3)]
        words += [list(word) for g, word in REFERENCE_WORDS.values()
                  if g == genus]
        words += [[(n, -sign) for n, sign in reversed(word)]
                  for word in words]
        for word in words:
            assert oracles.maps_equal(compose_word(genus, word),
                                      _uncached_word(genus, word)), word


def test_generator_factors_conjugate_back_to_their_twists():
    # each cached factor (u, R) of a generator twist T gives T back as
    # u R(e) u~, and every a_i's remainder moves one edge: the structure
    # that lets an a-letter re-splice one image
    for genus in range(1, 6):
        rose, curves = standard_rose(genus), standard_generators(genus)
        for name, curve in curves.items():
            for sign in (1, -1):
                u, moved = twist._generator_factor(genus, name, sign)
                rest = {e: (e,) for e in rose.edges}
                rest.update(moved)
                want = dehn_twist(rose, curve, sign).edge_image
                for e in rose.edges:
                    assert oracles.free_reduce(
                        u + rest[e] + reverse_path(u)) == want[e], (
                        genus, name, sign, e)
                assert all(p != (e,) for e, p in moved)
                if name.startswith("a"):
                    assert len(moved) == 1, (genus, name, sign)
                    if genus >= 2:
                        assert u == (-sign * curve[0],), (genus, name, sign)
                if name.startswith("d"):
                    assert u == (), (genus, name, sign)


def test_a_word_validates_one_map(monkeypatch):
    # once its generator twists are built, a word's composites along the
    # way are image dicts, and only the word's map is constructed
    rng = random.Random(23)
    names = sorted(standard_generators(3))
    word = [(rng.choice(names), rng.choice((1, -1))) for _ in range(12)]
    want = compose_word(3, word)
    calls = []
    init = GraphSelfMap.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(GraphSelfMap, "__init__", counting_init)
    assert oracles.maps_equal(compose_word(3, word), want)
    assert len(calls) == 1


def _concatenate(images, path):
    """The image of ``path`` with no cancellation where two images meet."""
    return tuple(chain.from_iterable(
        images[d] if d > 0 else reverse_path(images[-d]) for d in path))


def test_a_splice_that_backtracks_is_rejected(monkeypatch):
    # the word's map is validated once, so that one check must catch a
    # splice that skipped its seams at any of its three sites.  The
    # conjugator w is the image of the extra key 2g + 1: its update splices
    # (w,) + u, the final conjugation (w, e, -w), and the remainder splices
    # paths of the rose alone
    genus, word = REFERENCE_WORDS["ex1"]
    compose_word(genus, word)  # the generator factors, built and checked
    w = 2 * genus + 1
    sites = {"conjugator update": lambda path: path[0] == w and -w not in path,
             "remainder splices": lambda path: w not in map(abs, path),
             "final conjugation": lambda path: -w in path}
    for site, at_site in sites.items():
        def kernel(images, path, at_site=at_site):
            return (_concatenate if at_site(path)
                    else graphs._path_image)(images, path)

        monkeypatch.setattr(twist, "_path_image", kernel)
        with pytest.raises(MapCompatibilityError, match="backtracks"):
            compose_word(genus, word)


def test_composed_maps_are_fresh():
    word = [("c0", 1), ("a1", -1)]
    f = compose_word(2, word)
    want = _uncached_word(2, word)
    assert oracles.maps_equal(f, want)
    f.edge_image.clear()
    f.edge_image[1] = (2, 2, 2)
    one = compose_word(2, word[:1])
    one.edge_image[1] = ()
    assert oracles.maps_equal(compose_word(2, word), want)
    assert oracles.maps_equal(compose_word(2, word[:1]),
                              _uncached_word(2, word[:1]))


def test_composite_preserves_boundary_and_homology_structure():
    f = compose_word(2, [("a1", -1), ("d1", 1), ("c0", -1), ("d0", 1)])
    assert f.preserves_boundary()
    a = oracles.abelianization(f)
    assert oracles.is_symplectic(a, oracles.symplectic_form(2))
