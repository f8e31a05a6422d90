"""Gates, infinitesimal structure, and singularity reports."""
from __future__ import annotations

from fractions import Fraction

import pytest

from traintrack import (
    GraphSelfMap,
    InfinitesimalPolygon,
    InternalInvariantError,
    SingularityReport,
    TrainTrack,
    bestvina_handel,
    compose_word,
    full_report,
    gate_map,
    gates,
    infinitesimal_edges,
    orbit_permutation,
    polygons,
    puncture_index,
    standard_generators,
    standard_rose,
)
from traintrack import analysis, bh

import oracles
from conftest import REFERENCE_WORDS

PA_NAMES = ("ex1", "ex2", "ex3", "ex4")


def torus_track():
    rose = standard_rose(1)
    return GraphSelfMap(rose, {0: 0}, {1: (2,), 2: (2, 1)})


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def test_torus_track_gates():
    f = torus_track()
    assert not oracles.illegal_turns(f)
    gate_of = gates(f)
    assert set(gate_of) == {1, -1, 2, -2}
    assert gate_of[1] == gate_of[2] == frozenset({1, 2})
    assert gate_of[-1] == frozenset({-1})
    assert gate_of[-2] == frozenset({-2})


def test_gates_partition_directions(reference_runs):
    for name in PA_NAMES:
        f = reference_runs[name].final
        gate_of = gates(f)
        dirs = {d for e in f.graph.edges for d in (e, -e)}
        assert set(gate_of) == dirs
        for d, gate in gate_of.items():
            assert d in gate
            # all members of a gate are based at the same vertex
            assert len({f.graph.tail(x) for x in gate}) == 1


def test_gate_map_commutes_with_derivative(reference_runs):
    for name in PA_NAMES:
        f = reference_runs[name].final
        gate_of = gates(f)
        gm = gate_map(f)
        for d, gate in gate_of.items():
            assert gm[gate] == gate_of[f.derivative(d)]


# ---------------------------------------------------------------------------
# Infinitesimal edges
# ---------------------------------------------------------------------------

def test_torus_track_infinitesimal_star():
    f = torus_track()
    inf = infinitesimal_edges(f)
    hub = frozenset({1, 2})
    assert inf == {frozenset({hub, frozenset({-1})}),
                   frozenset({hub, frozenset({-2})})}
    assert len(polygons(f, inf)) == 0
    assert puncture_index(1, polygons(f, inf)) == 0


def test_infinitesimal_edges_contain_taken_turns(reference_runs):
    for name in PA_NAMES:
        f = reference_runs[name].final
        gate_of = gates(f)
        inf = infinitesimal_edges(f)
        for e in f.graph.edges:
            image = f.image(e)
            for a, b in zip(image, image[1:]):
                pair = frozenset((gate_of[-a], gate_of[b]))
                assert len(pair) == 2 and pair in inf, (name, e)


def test_infinitesimal_edges_closed_under_gate_map(reference_runs):
    for name in PA_NAMES:
        f = reference_runs[name].final
        gm = gate_map(f)
        inf = infinitesimal_edges(f)
        for pair in inf:
            g1, g2 = tuple(pair)
            image = frozenset((gm[g1], gm[g2]))
            assert len(image) == 2 and image in inf, name


def test_infinitesimal_edges_join_gates_at_one_vertex(reference_runs):
    for name in PA_NAMES:
        f = reference_runs[name].final
        for pair in infinitesimal_edges(f):
            vertices = {f.graph.tail(d) for gate in pair for d in gate}
            assert len(vertices) == 1, name


# ---------------------------------------------------------------------------
# Polygons and indices
# ---------------------------------------------------------------------------

def test_polygon_shapes(reference_runs):
    expected = {"ex1": [], "ex2": [], "ex3": [3, 3, 3, 3], "ex4": [6, 6]}
    for name in PA_NAMES:
        f = reference_runs[name].final
        polys = polygons(f, infinitesimal_edges(f))
        assert sorted(p.k for p in polys) == expected[name], name
        for p in polys:
            assert p.k == len(p.cycle)
            assert p.index == 1 - Fraction(p.k, 2)
            # a polygon lives at a single vertex
            vertices = {f.graph.tail(d) for gate in p.cycle for d in gate}
            assert vertices == {p.vertex}
        # no two polygons share an infinitesimal edge
        edge_sets = [p.edge_set() for p in polys]
        for i, s in enumerate(edge_sets):
            for t in edge_sets[i + 1:]:
                assert not (s & t)


def test_polygon_cycles_are_real_cycles(reference_runs):
    for name in ("ex3", "ex4"):
        f = reference_runs[name].final
        inf = infinitesimal_edges(f)
        for p in polygons(f, inf):
            cyc = p.cycle
            for i, gate in enumerate(cyc):
                nxt = cyc[(i + 1) % len(cyc)]
                assert frozenset((gate, nxt)) in inf


def test_orbit_permutations(reference_runs):
    expected = {"ex1": (), "ex2": (), "ex3": (1, 0, 3, 2), "ex4": (1, 0)}
    for name in PA_NAMES:
        f = reference_runs[name].final
        polys = polygons(f, infinitesimal_edges(f))
        orbit = orbit_permutation(f, polys)
        assert orbit == expected[name], name
        assert sorted(orbit) == list(range(len(polys)))


def test_puncture_index_arithmetic():
    assert puncture_index(2, ()) == Fraction(-2)
    assert isinstance(puncture_index(2, ()), Fraction)


def test_index_sum_is_euler_characteristic(reference_runs):
    for name in PA_NAMES:
        run = reference_runs[name]
        f = run.final
        polys = polygons(f, infinitesimal_edges(f))
        total = puncture_index(run.genus, polys) + sum(
            (p.index for p in polys), Fraction(0))
        assert total == 2 - 2 * run.genus, name


def test_puncture_index_matches_direct_cusp_count(reference_runs):
    """Two independent computations of the puncture singularity index:
    subtraction from the Euler characteristic, and a direct count of
    boundary-word cusps.  They must agree."""
    for name in PA_NAMES:
        run = reference_runs[name]
        f = run.final
        gate_of = gates(f)
        inf = infinitesimal_edges(f)
        direct = oracles.puncture_index_direct(f, gate_of, inf)
        assert direct == run.report.puncture_index, name


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_report_fields_pseudo_anosov(reference_runs):
    run = reference_runs["ex3"]
    rep = run.report
    assert isinstance(rep, SingularityReport)
    assert rep.verdict == "PseudoAnosov"
    assert rep.growth == pytest.approx(2.0153571812809963, abs=1e-9)
    assert [(p.k, p.index) for p in rep.polygons] == [(3, Fraction(-1, 2))] * 4
    # the report carries the polygons themselves, in polygons()'s label order
    f = run.final
    assert rep.polygons == tuple(polygons(f, infinitesimal_edges(f)))
    assert rep.puncture_index == 0
    assert rep.orbit == (1, 0, 3, 2)


def test_full_report_builds_one_gate_partition(reference_runs, monkeypatch):
    # infinitesimal_edges reads the one gate map, and orbit_permutation reads
    # the gates off the polygons; every module that binds gates is wrapped,
    # so no import hides a call
    real, calls = bh.gates, []

    def counting(f):
        calls.append(f)
        return real(f)

    for module in (bh, analysis):
        if getattr(module, "gates", None) is real:
            monkeypatch.setattr(module, "gates", counting)
    for name in PA_NAMES:
        run = reference_runs[name]
        calls.clear()
        assert full_report(run.outcome) == run.report
        assert calls == [run.final], name


def test_report_growth_one():
    outcome = bestvina_handel(compose_word(2, [("a1", 1), ("a1", -1)]))
    rep = full_report(outcome)
    assert rep.verdict == "GrowthOne"
    assert rep.growth == 1.0
    assert rep.polygons is None
    assert rep.puncture_index is None
    assert rep.orbit is None


def test_report_reducible(reference_runs):
    rep = reference_runs["ex5"].report
    assert rep.verdict == "Reducible"
    assert rep.growth is None
    assert rep.polygons is None


def test_hexagon_word_regression(reference_runs):
    """Pins the computed data for the genus-2 word -a1 d1 -c0 d0: its
    six-pronged singularity sits at the puncture.  The word is conjugate to
    Penner's T_A T_B^-1 on the chain a1-d1-c0-d0, whose complement is one
    12-gon holding the puncture; test_ex2_is_penner_chain_of_four derives
    this from the curve words alone."""
    rep = reference_runs["ex2"].report
    assert rep.verdict == "PseudoAnosov"
    assert rep.polygons == ()
    assert rep.puncture_index == -2
    # the homology action already realizes the full growth, so the
    # invariant foliations are orientable
    h1 = oracles.h1_spectral_radius(reference_runs["ex2"].start)
    assert h1 == pytest.approx(rep.growth, abs=1e-6)


# ---------------------------------------------------------------------------
# Error paths, on crafted inputs.  The public functions check what they are
# given; no word reaches these branches through the pipeline.
# puncture_index's fractional prong count needs a genus that is no integer,
# since each index 1 - k/2 is a multiple of 1/2.
# ---------------------------------------------------------------------------

def _gates_at(f, vertex):
    gate_of = gates(f)
    return sorted({gate_of[d] for d in gate_of if f.graph.tail(d) == vertex},
                  key=sorted)


def test_infinitesimal_edges_reject_illegal_turns():
    genus, word = REFERENCE_WORDS["ex1"]
    f = compose_word(genus, list(word))
    assert oracles.illegal_turns(f)
    with pytest.raises(InternalInvariantError,
                       match="infinitesimal edges need a train track map"):
        infinitesimal_edges(f)


def test_polygons_reject_an_edge_across_two_vertices(reference_runs):
    f = reference_runs["ex4"].final
    pair = frozenset((_gates_at(f, 4)[0], _gates_at(f, 5)[0]))
    with pytest.raises(InternalInvariantError,
                       match="infinitesimal edge spans two vertices"):
        polygons(f, {pair})


def test_polygons_reject_a_gate_of_degree_three(reference_runs):
    f = reference_runs["ex4"].final
    hub, *others = _gates_at(f, 4)[:4]
    edges = {frozenset((hub, g)) for g in others}
    with pytest.raises(InternalInvariantError,
                       match="gate at vertex 4 carries 3 infinitesimal edges"):
        polygons(f, edges)


def test_orbit_permutation_rejects_bad_polygon_lists(reference_runs):
    f = reference_runs["ex3"].final
    polys = polygons(f, infinitesimal_edges(f))
    assert orbit_permutation(f, polys) == (1, 0, 3, 2)
    # polygon 1, the image of polygon 0, is dropped
    with pytest.raises(InternalInvariantError,
                       match="polygon image is not again a polygon"):
        orbit_permutation(f, [polys[0]] + polys[2:])
    # polygon 1 listed as a hexagon running twice round its three gates
    doubled = InfinitesimalPolygon(polys[1].vertex, polys[1].cycle * 2)
    with pytest.raises(InternalInvariantError,
                       match="polygon image changed its number of sides"):
        orbit_permutation(f, [polys[0], doubled])
    with pytest.raises(InternalInvariantError,
                       match="polygon orbit map is not a bijection"):
        orbit_permutation(f, polys[:2] + polys[:1])


def test_puncture_index_rejects_too_many_prongs(reference_runs):
    polys = reference_runs["ex3"].report.polygons
    assert puncture_index(1, polys[:1]) == Fraction(1, 2)
    with pytest.raises(InternalInvariantError,
                       match="puncture prong count 0 is not a positive"):
        puncture_index(1, polys[:2])
    # a genus that is no integer gives a fractional prong count
    with pytest.raises(InternalInvariantError, match="^puncture prong count "
                       "3602879701896397/562949953421312 is not a positive "
                       "integer$"):
        puncture_index(2.1, [])


def test_full_report_rejects_a_train_track_without_growth(reference_runs):
    f = reference_runs["ex3"].final
    with pytest.raises(InternalInvariantError,
                       match="train track outcome without irreducible growth"):
        full_report(TrainTrack(f, 1.0))
    with pytest.raises(TypeError, match="not an algorithm outcome"):
        full_report(f)


def test_intersection_oracle_on_generators():
    """The linked-pair count is symmetric and equals |omega| on every pair
    of standard generators, and it sees the two crossings of c0 with the
    separating curve around handle 0, which omega misses."""
    for genus in (2, 3, 4):
        rho = oracles.commutator_word(genus)
        assert rho == standard_rose(genus).rho
        form = oracles.symplectic_form(genus)
        words = standard_generators(genus)
        for a in sorted(words):
            for b in sorted(words):
                if a == b:
                    continue
                got = oracles.geometric_intersection(words[a], words[b], rho)
                omega = (oracles.homology_class(words[a], genus) @ form
                         @ oracles.homology_class(words[b], genus))
                assert got == abs(int(omega)), (genus, a, b)
    rho = oracles.commutator_word(2)
    separating = (1, 2, -1, -2)
    assert oracles.geometric_intersection(separating, (1, 3), rho) == 2
    assert oracles.geometric_intersection(separating, (3,), rho) == 0


def test_chain_faces():
    """A chain of n curves has one boundary component for even n and two
    for odd n; the sides add up to the 4(n-1) corners of its crossings."""
    for n in range(2, 9):
        faces = oracles.chain_faces(n)
        assert len(faces) == (1 if n % 2 == 0 else 2)
        assert sum(faces) == 4 * (n - 1)


def test_ex2_is_penner_chain_of_four(reference_runs):
    """-a1 d1 -c0 d0 is conjugate to T_A T_B^-1 with A = {d0, d1} and
    B = {a1, c0}, the chain a1-d1-c0-d0.  Its single complementary face is
    a 12-gon around the puncture, so the puncture carries a 6-prong
    singularity and there is none inside; Penner's formula gives the
    growth.  These expectations come from the curve words and the
    intersection form only; acceptance criterion 2 asserts them of the
    program."""
    genus, word = REFERENCE_WORDS["ex2"]
    data = oracles.penner_data(genus, standard_generators(genus), word)
    assert (data["V"], data["E"], data["F"]) == (3, 6, 1)
    assert data["sides"] == 12
    assert data["prongs"] == 6
    assert data["puncture_index"] == Fraction(-2)
    assert data["growth"] == pytest.approx(
        reference_runs["ex2"].report.growth, abs=1e-9)


@pytest.mark.parametrize("name, reason", [
    ("ex1", "occur once"),
    ("ex3", "of one sign must be disjoint"),
    ("ex4", "of one sign must be disjoint"),
])
def test_penner_oracle_rejects_other_words(name, reason):
    """ex1 twists a1 three times, and in ex3 and ex4 two twists of one sign
    cross, so the oracle's hypotheses do not hold for them."""
    genus, word = REFERENCE_WORDS[name]
    with pytest.raises(ValueError, match=reason):
        oracles.penner_data(genus, standard_generators(genus), word)
