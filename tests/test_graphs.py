"""Embedded-graph construction, validation, and path utilities."""
from __future__ import annotations

from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from traintrack import (
    EmbeddedGraph,
    GraphStructureError,
    cyclic_tighten,
    is_cyclic_rotation,
    reverse_path,
    standard_rose,
    tighten,
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
    assert set(order) == set(rose.directions(0))
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


def test_theta_rotation_orders():
    g = theta_graph()
    rot = g.rotation_system()
    assert set(rot) == {0, 1}
    assert set(rot[0]) == {1, -2, 3}
    assert set(rot[1]) == {-1, 2, -3}


def test_unknown_ids_raise():
    g = theta_graph()
    with pytest.raises(GraphStructureError):
        g.tail(7)
    with pytest.raises(GraphStructureError):
        g.directions(9)
    with pytest.raises(GraphStructureError):
        g.successor(0)


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
                    assert is_cyclic_rotation(walk, order)
        for v, w in combinations(g.vertices, 2):
            with pytest.raises(GraphStructureError):
                g.arc(g.directions(v)[0], g.directions(w)[0])


# ---------------------------------------------------------------------------
# Validation failures
# ---------------------------------------------------------------------------

def test_rejects_empty_graph():
    with pytest.raises(GraphStructureError):
        EmbeddedGraph({}, ())


def test_rejects_bad_edge_ids():
    with pytest.raises(GraphStructureError):
        EmbeddedGraph({0: (0, 0)}, (0, -0))
    with pytest.raises(GraphStructureError):
        EmbeddedGraph({-1: (0, 0)}, (-1, 1))


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
    # two loops at one vertex traversed as two separate faces
    with pytest.raises(GraphStructureError):
        EmbeddedGraph({1: (0, 0), 2: (0, 0)}, (1, -1, 2, -2))


def test_rejects_genus_zero():
    # single loop, sphere-like boundary word (two faces after embedding)
    with pytest.raises(GraphStructureError):
        EmbeddedGraph({1: (0, 0)}, (1, -1))


# ---------------------------------------------------------------------------
# Path utilities
# ---------------------------------------------------------------------------

def test_tighten_examples():
    assert tighten(()) == ()
    assert tighten((1, -1)) == ()
    assert tighten((1, 2, -2, -1, 3)) == (3,)
    assert tighten((1, 2, 3)) == (1, 2, 3)


def test_cyclic_tighten_examples():
    assert cyclic_tighten((2, 1, -2)) == (1,)
    assert cyclic_tighten((1, 2, -1)) == (2,)
    assert cyclic_tighten((1, -1)) == ()
    assert cyclic_tighten((1, 2)) == (1, 2)
    w = (1, 2) * 1000
    assert cyclic_tighten(w + (3,) + reverse_path(w)) == (3,)


def test_is_cyclic_rotation_examples():
    assert is_cyclic_rotation((1, 2, 3), (3, 1, 2))
    assert is_cyclic_rotation((), ())
    assert not is_cyclic_rotation((1, 2, 3), (1, 3, 2))
    assert not is_cyclic_rotation((1, 2), (1, 2, 3))


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
    reduced = cyclic_tighten(path)
    assert not oracles.has_cancellation(reduced)
    if reduced:
        assert reduced[0] != -reduced[-1]
        rotated = reduced[1:] + reduced[:1]
        assert is_cyclic_rotation(reduced, rotated)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(paths, st.integers(min_value=0, max_value=11))
def test_is_cyclic_rotation_accepts_all_rotations(path, k):
    if path:
        k %= len(path)
        assert is_cyclic_rotation(path, path[k:] + path[:k])
