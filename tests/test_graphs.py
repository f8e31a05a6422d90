"""Embedded-graph construction, validation, and path utilities."""
from __future__ import annotations

import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traintrack import (
    EmbeddedGraph,
    GraphSelfMap,
    GraphStructureError,
    MapCompatibilityError,
    bestvina_handel,
    compose_word,
    reverse_path,
    standard_generators,
    standard_rose,
    tighten,
)
from traintrack.graphs import (
    _is_cyclic_rotation,
    _path_image,
    _trim_seam,
    substitute,
)

import oracles

THETA = {
    "edges": {1: (0, 1), 2: (1, 0), 3: (0, 1)},
    "rho": (1, 2, 3, -1, -2, -3),
}


def theta_graph():
    return EmbeddedGraph(dict(THETA["edges"]), THETA["rho"])


# ---------------------------------------------------------------------------
# standard_rose
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_rose_shape(genus):
    rose = standard_rose(genus)
    assert sorted(rose.edges) == list(range(1, 2 * genus + 1))
    assert rose.vertices == (0,)
    assert all(rose.edges[e] == (0, 0) for e in rose.edges)
    assert len(rose.rho) == 4 * genus
    assert rose.genus == genus


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_rose_boundary_is_commutator_product(genus):
    rose = standard_rose(genus)
    expected = []
    for i in range(genus):
        x, y = 2 * i + 1, 2 * i + 2
        expected += [x, y, -x, -y]
    assert rose.rho == tuple(expected)


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_rose_face_trace_oracle(genus):
    rose = standard_rose(genus)
    assert oracles.face_count(rose) == 1
    assert oracles.genus_via_euler(rose) == genus


def test_rose_rotation_is_single_cycle():
    rose = standard_rose(2)
    order = rose.rotation_order(0)
    assert set(order) == {d for d in rose.rho if rose.tail(d) == 0}
    assert len(order) == 8
    # successor really cycles through all directions once
    seen = [order[0]]
    while len(seen) < 8:
        seen.append(rose.successor(seen[-1]))
    assert rose.successor(seen[-1]) == seen[0]
    assert set(seen) == set(order)


# ---------------------------------------------------------------------------
# General graphs
# ---------------------------------------------------------------------------

def test_theta_graph_valid():
    g = theta_graph()
    assert g.genus == 1
    assert g.vertices == (0, 1)
    assert g.tail(1) == 0 and g.head(1) == 1
    assert g.tail(-1) == 1 and g.head(-1) == 0
    assert g.valence(0) == 3 and g.valence(1) == 3
    assert oracles.face_count(g) == 1
    assert oracles.genus_via_euler(g) == 1
    assert g == theta_graph() and g != standard_rose(1)
    assert g.__eq__(THETA) is NotImplemented and g != THETA


def test_theta_rotation_orders():
    g = theta_graph()
    rot = {v: g.rotation_order(v) for v in g.vertices}
    assert set(rot) == {0, 1}
    assert set(rot[0]) == {1, -2, 3}
    assert set(rot[1]) == {-1, 2, -3}


def test_unknown_ids_raise():
    g = theta_graph()
    with pytest.raises(GraphStructureError):
        g.tail(7)
    with pytest.raises(GraphStructureError,
                       match="^unknown edge in direction -7$"):
        g.head(7)
    with pytest.raises(GraphStructureError, match="^unknown vertex 9$"):
        g.rotation_order(9)
    with pytest.raises(GraphStructureError, match="^unknown direction 0$"):
        g.successor(0)
    with pytest.raises(GraphStructureError,
                       match="^directions 1 and -1 sit at different vertices$"):
        g.arc(1, -1)


def test_arc_walks_the_rotation(reference_runs):
    for run in reference_runs.values():
        g = run.final.graph
        for v in g.vertices:
            order = g.rotation_order(v)
            for a, b in product(order, repeat=2):
                if a == b:
                    assert sorted(g.arc(a, a)) == sorted(set(order) - {a})
                else:
                    walk = (a,) + g.arc(a, b) + (b,) + g.arc(b, a)
                    assert _is_cyclic_rotation(walk, order)
        for v, w in combinations(g.vertices, 2):
            with pytest.raises(GraphStructureError):
                g.arc(g.rotation_order(v)[0], g.rotation_order(w)[0])


def test_rotation_is_the_successor_walk_from_the_smallest_direction(
        reference_runs):
    # the derivation that construction replaced, as the reference: on every
    # hook snapshot's graph and the standard roses, a vertex's rotation is
    # the successor walk from the smallest of its directions read off rho
    graphs = [f.graph for run in reference_runs.values()
              for _move, f, _info in run.snapshots]
    graphs += [standard_rose(genus) for genus in (1, 2, 3, 4)]
    for g in graphs:
        assert g.vertices == tuple(sorted({g.tail(d) for d in g.rho}))
        for v in g.vertices:
            at = {d for d in g.rho if g.tail(d) == v}
            walk = [min(at)]
            while g.successor(walk[-1]) != walk[0]:
                walk.append(g.successor(walk[-1]))
            assert g.rotation_order(v) == tuple(walk)
            assert g.valence(v) == len(at)
    assert len(graphs) > 100


# ---------------------------------------------------------------------------
# Validation failures
# ---------------------------------------------------------------------------

def test_rejects_empty_graph():
    # with no edge, 1 - V + E = 1 fails the genus check
    with pytest.raises(GraphStructureError,
                       match=r"genus >= 1 \(V=0, E=0\)$"):
        EmbeddedGraph({}, ())


def test_rejects_bad_edge_ids():
    with pytest.raises(GraphStructureError):
        EmbeddedGraph({0: (0, 0)}, (0, -0))
    with pytest.raises(GraphStructureError):
        EmbeddedGraph({-1: (0, 0)}, (-1, 1))
    # vertex ids follow the same rule: a fold names its new vertex after
    # the largest id, so a non-integer id would fail only inside the loop
    for z in ("a", True):
        with pytest.raises(GraphStructureError, match="^vertex ids must be"):
            EmbeddedGraph({1: (z, z), 2: (z, z)}, (1, 2, -1, -2))


def test_rejects_boundary_with_repeats():
    with pytest.raises(GraphStructureError):
        EmbeddedGraph({1: (0, 0), 2: (0, 0)}, (1, 1, 2, -2))


def test_rejects_boundary_missing_direction():
    with pytest.raises(GraphStructureError):
        EmbeddedGraph({1: (0, 0), 2: (0, 0)}, (1, -1))


def test_rejects_non_closed_walk():
    with pytest.raises(GraphStructureError):
        EmbeddedGraph(dict(THETA["edges"]), (1, 3, 2, -1, -2, -3))


def test_rejects_split_rotation():
    for edges, rho, v in [
            # two loops at one vertex traversed as two separate faces
            ({1: (0, 0), 2: (0, 0)}, (1, -1, 2, -2), 0),
            # three loops the same way: the rotation splits into four cycles
            ({1: (0, 0), 2: (0, 0), 3: (0, 0)}, (1, -1, 2, -2, 3, -3), 0),
            # vertex 0, met first in sorted order (at -3), is whole; vertex
            # 1's rotation splits into (-2), (-1) and (1 2 3)
            ({1: (1, 1), 2: (1, 1), 3: (1, 0)}, (-3, 1, -1, 2, -2, 3), 1)]:
        with pytest.raises(GraphStructureError,
                           match=f"^rotation at vertex {v} splits into "
                           "several cycles$"):
            EmbeddedGraph(edges, rho)


def test_rejects_genus_zero():
    # single loop, sphere-like boundary word (two faces after embedding)
    with pytest.raises(GraphStructureError):
        EmbeddedGraph({1: (0, 0)}, (1, -1))
    # a single edge between two vertices: one face, but genus 0
    with pytest.raises(GraphStructureError, match=r"^boundary word does not "
                       r"give a once-punctured surface of genus >= 1 "
                       r"\(V=2, E=1\)$"):
        EmbeddedGraph({1: (0, 1)}, (1, -1))


def test_one_face_rotation_systems_have_even_euler_count():
    # seeded rotation systems on at most 4 vertices and 6 edges, loops
    # allowed: shuffled cyclic orders, and rho the boundary walk from
    # direction 1, d -> successor(-d).  When the walk covers every
    # direction the surface has one face, so 1 - V + E is twice its genus,
    # and the constructor needs no parity check to reject the rest
    rng = random.Random(33)
    accepted = rejected = 0
    for _ in range(20000):
        n_vertices = rng.randint(1, 4)
        edges = {e: (rng.randrange(n_vertices), rng.randrange(n_vertices))
                 for e in range(1, rng.randint(1, 6) + 1)}
        at = {}
        for e, (u, v) in edges.items():
            at.setdefault(u, []).append(e)
            at.setdefault(v, []).append(-e)
        succ = {}
        for ds in at.values():
            rng.shuffle(ds)
            succ.update(zip(ds, ds[1:] + ds[:1]))
        rho = [1]
        while succ[-rho[-1]] != 1:
            rho.append(succ[-rho[-1]])
        if len(rho) < 2 * len(edges):
            continue
        two_genus = 1 - len(at) + len(edges)
        assert two_genus % 2 == 0, (edges, rho)
        if two_genus >= 2:
            graph = EmbeddedGraph(edges, rho)
            assert {v: set(graph.rotation_order(v)) for v in at} == {
                v: set(ds) for v, ds in at.items()}
            accepted += 1
        else:
            with pytest.raises(GraphStructureError,
                               match="^boundary word does not give a "
                               "once-punctured surface of genus >= 1"):
                EmbeddedGraph(edges, rho)
            rejected += 1
    assert (accepted, rejected) == (1500, 2269)


@pytest.mark.parametrize("rho, message", [
    ((1, 1, 2, -2), "exactly once"),      # right length, a letter repeated
    ((1, -1), "exactly once"),            # too short
    ((1, 2, -1, -2, 1), "exactly once"),  # every letter, one twice
    ((1, -2, 2, -1), "closed walk"),
])
def test_boundary_word_rejections_name_the_failure(rho, message):
    with pytest.raises(GraphStructureError, match=message):
        EmbeddedGraph({1: (0, 0), 2: (0, 1)}, rho)


# theta graph: 1 and 3 run from 0 to 1, 2 from 1 to 0
THETA_IMAGES = {1: (1,), 2: (2,), 3: (3,)}


@pytest.mark.parametrize("vertex_image, images, message", [
    ({0: 0}, {}, "vertex_image must cover exactly the vertices"),
    ({0: 0, 1: 1, 2: 0}, {}, "vertex_image must cover exactly the vertices"),
    ({0: 0, 1: 5}, {}, "vertex 1 maps to unknown vertex 5"),
    ({}, {1: ()}, "edge 1 has a trivial image but its endpoints map to "
                  "distinct vertices"),
    ({}, {2: (2, -4)}, "image of edge 2 uses unknown edge 4"),
    ({}, {1: (1, 3)}, "image of edge 1 is not a path"),
    # the break comes first, but an unknown letter is reported before it
    ({}, {1: (1, 3, 9)}, "image of edge 1 uses unknown edge 9"),
    # the first step also leaves the wrong vertex, and the image backtracks;
    # the break is reported
    ({}, {3: (-1, 1, 1)}, "image of edge 3 is not a path"),
    ({}, {1: (1, 2)}, "image of edge 1 has the wrong endpoints"),
    ({}, {1: (-3,)}, "image of edge 1 has the wrong endpoints"),
    # an unknown first letter, where the walk starts, is reported as such
    ({}, {1: (9, 1)}, "image of edge 1 uses unknown edge 9"),
    ({}, {1: (-9,)}, "image of edge 1 uses unknown edge 9"),
    # a path with the right endpoints, but not a tight one
    ({}, {1: (1, 2, -2)}, "image of edge 1 backtracks"),
])
def test_map_rejections_name_the_failure(vertex_image, images, message):
    with pytest.raises(MapCompatibilityError, match=f"^{message}$"):
        GraphSelfMap(theta_graph(), vertex_image or {0: 0, 1: 1},
                     {**THETA_IMAGES, **images})


def test_map_rejections_on_roses_and_coverage():
    rose = standard_rose(2)
    images = {e: (e,) for e in rose.edges}
    with pytest.raises(MapCompatibilityError,
                       match="^image of edge 1 uses unknown edge 7$"):
        GraphSelfMap(rose, {0: 0}, {**images, 1: (1, -7, 2)})
    with pytest.raises(MapCompatibilityError,
                       match="^image of edge 1 backtracks$"):
        GraphSelfMap(standard_rose(1), {0: 0}, {1: (1, 2, -2), 2: (2,)})
    for g, images in [(rose, {e: images[e] for e in (1, 2, 3)}),
                      (theta_graph(), {**THETA_IMAGES, 4: (1,)})]:
        with pytest.raises(MapCompatibilityError,
                           match="^edge_image must cover exactly the edges$"):
            GraphSelfMap(g, dict.fromkeys(g.vertices, 0), images)
    f = GraphSelfMap(rose, {0: 0}, {1: (), 2: (2,), 3: (3,), 4: (4,)})
    with pytest.raises(MapCompatibilityError,
                       match="^direction -1 has a trivial image, no derivative$"):
        f.derivative(-1)


# ---------------------------------------------------------------------------
# Path utilities
# ---------------------------------------------------------------------------

def test_tighten_examples():
    assert tighten(()) == ()
    assert tighten((1, -1)) == ()
    assert tighten((1, 2, -2, -1, 3)) == (3,)
    assert tighten((1, 2, 3)) == (1, 2, 3)


def test_cyclic_tighten_examples():
    assert _trim_seam(tighten((2, 1, -2))) == (1,)
    assert _trim_seam(tighten((1, 2, -1))) == (2,)
    assert _trim_seam(tighten((1, -1))) == ()
    assert _trim_seam(tighten((1, 2))) == (1, 2)
    w = (1, 2) * 1000
    assert _trim_seam(tighten(w + (3,) + reverse_path(w))) == (3,)


def test_is_cyclic_rotation_examples():
    assert _is_cyclic_rotation((1, 2, 3), (3, 1, 2))
    assert _is_cyclic_rotation((), ())
    assert not _is_cyclic_rotation((1, 2, 3), (1, 3, 2))
    assert not _is_cyclic_rotation((1, 2), (1, 2, 3))


letters = st.sampled_from([1, -1, 2, -2, 3, -3])
paths = st.lists(letters, max_size=12).map(tuple)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(paths)
def test_tighten_is_idempotent_and_tight(path):
    once = tighten(path)
    assert not oracles.has_cancellation(once)
    assert tighten(once) == once


@settings(derandomize=True, max_examples=80, deadline=None)
@given(paths)
def test_cyclic_tighten_fixed_by_rotation(path):
    reduced = _trim_seam(tighten(path))
    assert not oracles.has_cancellation(reduced)
    if reduced:
        assert reduced[0] != -reduced[-1]
        rotated = reduced[1:] + reduced[:1]
        assert _is_cyclic_rotation(reduced, rotated)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(paths, st.integers(min_value=0, max_value=11))
def test_is_cyclic_rotation_accepts_all_rotations(path, k):
    if path:
        k %= len(path)
        assert _is_cyclic_rotation(path, path[k:] + path[:k])


def test_substitute_examples():
    # an unreplaced letter cancels the end of a replacement, and the start
    # of a replacement cancels an unreplaced letter
    assert substitute((1, 2), {1: (3, -2)}) == (3,)
    assert substitute((-2, 1), {1: (2, 3)}) == (3,)
    assert substitute((1, 2, -2, 3), {}) == (1, 3)
    assert substitute((1, 2), {1: (), 2: (-3,)}) == (-3,)


# tables need not agree on d and -d: substitute reads each letter alone
tables = st.dictionaries(letters, paths, max_size=6)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(paths, tables)
def test_substitute_is_the_reduced_substitution(path, table):
    plain = tuple(c for d in path for c in table.get(d, (d,)))
    assert substitute(path, table) == oracles.free_reduce(plain)


def test_path_image_substitutes_the_outer_images(reference_runs):
    # each of two seeded twist maps after each, and each of ex1's hook
    # snapshots, on graphs of up to 16 vertices, after itself: the splice
    # of every inner image through the outer map is its reduced spelling
    rng = random.Random(3)
    pairs = []
    for genus in (1, 2, 3):
        names = sorted(standard_generators(genus))
        for _ in range(6):
            f, g = (compose_word(genus, [
                (rng.choice(names), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 5))]) for _ in range(2))
            pairs.extend(product((g, f), repeat=2))
    pairs.extend((f, f) for _move, f, _info in reference_runs["ex1"].snapshots)
    assert max(len(inner.graph.vertices) for _outer, inner in pairs) == 16
    for outer, inner in pairs:
        for e, p in inner.edge_image.items():
            assert _path_image(outer.edge_image, p) == oracles.free_reduce(
                oracles.raw_apply(outer, p)), (inner, e)


def _walk(graph, rng, length):
    """A random edge path of ``graph``; it may backtrack."""
    at = rng.choice(graph.vertices)
    path = []
    for _ in range(length):
        d = rng.choice(sorted(graph.rotation_order(at)))
        path.append(d)
        at = graph.head(d)
    return tuple(path)


def test_path_image_is_the_reduced_substitution(reference_runs):
    # hook snapshots and seeded tight rose maps, some with empty images, on
    # their boundary words, one- and two-letter paths, inverse pairs, and
    # random walks alone and followed by their reverse
    rng = random.Random(7)
    maps = [f for run in reference_runs.values()
            for _move, f, _info in run.snapshots]
    for _ in range(40):
        rose = standard_rose(rng.randint(1, 3))
        letters = [d for e in rose.edges for d in (e, -e)]
        maps.append(GraphSelfMap(rose, {0: 0}, {
            e: tighten(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            for e in rose.edges}))
    empty = 0
    for f in maps:
        images = f.edge_image
        for e, q in images.items():
            assert _path_image(images, (e,)) == q
            assert _path_image(images, (-e,)) == reverse_path(q)
            assert _path_image(images, (e, -e)) == ()
            empty += not q
        walks = [_walk(f.graph, rng, rng.randint(2, 12)) for _ in range(4)]
        paths = [(), f.graph.rho] + walks
        paths += [w + reverse_path(w) for w in walks]
        paths += [(a, b) for a in f.graph.rho for b in sorted(
            f.graph.rotation_order(f.graph.head(a)))][:40]
        for p in paths:
            assert _path_image(images, p) == oracles.free_reduce(
                oracles.raw_apply(f, p)), (f, p)
    assert len(maps) > 100 and empty > 10


# ---------------------------------------------------------------------------
# preserves_boundary
# ---------------------------------------------------------------------------

def _conjugation():
    """Conjugation by edge 1 on the genus-2 rose: a tight map whose image
    of the boundary word cancels only across its cyclic seam."""
    rose = standard_rose(2)
    return GraphSelfMap(rose, {0: 0}, {
        e: (1,) if e == 1 else (1, e, -1) for e in rose.edges})


def test_preserves_boundary_matches_its_definition(reference_runs):
    # the moves' snapshots, twist maps and a conjugation keep the boundary
    # word, tight random rose maps mostly do not
    rng = random.Random(3)
    maps = [f for run in reference_runs.values()
            for _move, f, _info in run.snapshots]
    conjugation = _conjugation()
    assert conjugation.preserves_boundary()
    maps.append(conjugation)
    for _ in range(90):
        genus = rng.randint(1, 3)
        rose = standard_rose(genus)
        letters = [d for e in rose.edges for d in (e, -e)]
        maps.append(GraphSelfMap(rose, {0: 0}, {
            e: tighten(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            for e in rose.edges}))
        names = sorted(standard_generators(genus))
        maps.append(compose_word(genus, [
            (rng.choice(names), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 6))]))
    verdicts = []
    for f in maps:
        rho = f.graph.rho
        want = _is_cyclic_rotation(
            _trim_seam(tighten(oracles.raw_apply(f, rho))),
            _trim_seam(tighten(rho)))
        assert f.preserves_boundary() == want
        verdicts.append(want)
    assert verdicts.count(True) > 200 and verdicts.count(False) > 60


def _padded(graph, vertex_image, images, rng):
    """``images`` with backtracks ``(d, -d)`` put in at random."""
    out = {}
    for e, p in images.items():
        p = list(p)
        for _ in range(rng.randint(0, 2)):
            i = rng.randint(0, len(p))
            at = (graph.tail(p[i]) if i < len(p)
                  else vertex_image[graph.head(e)])
            d = rng.choice(sorted(graph.rotation_order(at)))
            p[i:i] = [d, -d]
        out[e] = tuple(p)
    return out


def test_tight_means_no_image_backtracks(reference_runs):
    # construction rejects exactly the maps with an image that backtracks,
    # as a scan of every image finds them: the moves' snapshots, seeded
    # twist words, rose maps with empty and random images, and padded
    # copies of all of them
    rng = random.Random(5)
    pool = [(f.graph, f.vertex_image, f.edge_image)
            for run in reference_runs.values()
            for _move, f, _info in run.snapshots]
    for _ in range(30):
        genus = rng.randint(1, 3)
        names = sorted(standard_generators(genus))
        f = compose_word(genus, [
            (rng.choice(names), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 6))])
        pool.append((f.graph, f.vertex_image, f.edge_image))
        rose = standard_rose(genus)
        letters = [d for e in rose.edges for d in (e, -e)]
        pool.append((rose, {0: 0}, {
            e: tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
            for e in rose.edges}))
    rose = standard_rose(2)
    pool.append((rose, {0: 0}, {e: () for e in rose.edges}))
    pool.append((rose, {0: 0}, {1: (), 2: (1, -1), 3: (3,), 4: (-4, 4, 4)}))
    pool += [(g, v, _padded(g, v, images, rng)) for g, v, images in pool]
    rejected = 0
    for g, vertex_image, images in pool:
        bad = [e for e, p in images.items() if oracles.has_cancellation(p)]
        if bad:
            with pytest.raises(MapCompatibilityError,
                               match=f"^image of edge {bad[0]} backtracks$"):
                GraphSelfMap(g, vertex_image, images)
            rejected += 1
        else:
            GraphSelfMap(g, vertex_image, images)
    assert rejected > 100


def test_map_that_breaks_the_boundary_word():
    # on the genus-2 rose, rho starts with the commutator (1, 2, -1, -2).
    # Edge 1 -> (1, 2) keeps it, since [12, 2] = [1, 2]; edge 1 -> (2, 1)
    # turns it into [21, 2], which is no rotation of it
    rose = standard_rose(2)
    images = {e: (e,) for e in rose.edges}
    assert GraphSelfMap(rose, {0: 0}, {**images, 1: (1, 2)}
                        ).preserves_boundary()
    broken = GraphSelfMap(rose, {0: 0}, {**images, 1: (2, 1)})
    assert not broken.preserves_boundary()
    with pytest.raises(MapCompatibilityError, match="^input map does not "
                       "preserve the boundary word$"):
        bestvina_handel(broken)


# ---------------------------------------------------------------------------
# transition_matrix
# ---------------------------------------------------------------------------

def test_transition_matrix_counts_crossings():
    # seeded maps of roses with spaced-out edge ids, tight random images
    # and one empty image each: the matrix against a plain count of
    # crossings
    rng = random.Random(5)
    for _ in range(30):
        ids = sorted(rng.sample(range(1, 90, 3), 2 * rng.randint(1, 4)))
        rho = tuple(d for x, y in zip(ids[::2], ids[1::2])
                    for d in (x, y, -x, -y))
        letters = ids + [-e for e in ids]
        images = {e: tighten(rng.choice(letters)
                             for _ in range(rng.randint(0, 40))) for e in ids}
        images[rng.choice(ids)] = ()
        f = GraphSelfMap(EmbeddedGraph({e: (0, 0) for e in ids}, rho),
                         {0: 0}, images)
        want = [[sum(abs(d) == i for d in images[j]) for j in ids]
                for i in ids]
        m = f.transition_matrix()
        assert m.dtype == np.int64
        assert m.tolist() == want


def test_transition_matrix_is_a_copy(reference_runs):
    # writing into the returned array leaves the map's matrix as it was
    for run in reference_runs.values():
        f = run.final
        m = f.transition_matrix()
        want = m.tolist()
        m[-1] = 99
        m[0, 0] = -1
        assert f.transition_matrix().tolist() == want
