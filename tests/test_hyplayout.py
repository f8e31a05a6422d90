"""Circle packing, disk development, and SVG rendering."""
from __future__ import annotations

import math
import random
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from traintrack import (
    EmbeddedGraph,
    GraphStructureError,
    PackingDidNotConverge,
    PackingRadii,
    bestvina_handel,
    circle_pack,
    compose_word,
    cone_triangulation,
    develop,
    emit_svg,
    hyplayout,
    infinitesimal_edges,
    polygons,
    standard_generators,
    standard_rose,
)

import oracles

SVG_NS = "{http://www.w3.org/2000/svg}"


def _c(point):
    return complex(point[0], point[1])


def build_layout(graph):
    tri = cone_triangulation(graph)
    radii = circle_pack(tri)
    return tri, radii, develop(tri, radii)


def svg_for(run):
    graph = run.final.graph
    tri, radii, layout = build_layout(graph)
    if run.report.verdict == "PseudoAnosov":
        structure = polygons(run.final, infinitesimal_edges(run.final))
    else:
        structure = ()
    return emit_svg(layout, structure)


# ---------------------------------------------------------------------------
# Cone triangulation
# ---------------------------------------------------------------------------

def test_cone_triangulation_structure():
    rose = standard_rose(2)
    tri = cone_triangulation(rose)
    assert tri.sides == rose.rho
    assert tri.corner_vertex == tuple(rose.tail(d) for d in rose.rho)
    assert tri.triangle_count == len(rose.rho)
    for i in range(len(tri.sides)):
        j = tri.side_partner(i)
        assert j != i
        assert tri.sides[j] == -tri.sides[i]
        assert tri.side_partner(j) == i


# ---------------------------------------------------------------------------
# Circle packing
# ---------------------------------------------------------------------------

def test_symmetric_rose_packing():
    # all corners alike: angle sums force pi/(2g) at the apex and
    # pi/(4g) at the base corners
    for genus in (2, 3):
        rose = standard_rose(genus)
        tri = cone_triangulation(rose)
        radii = circle_pack(tri)
        r_corner = set(radii.vertex.values())
        assert len(r_corner) == 1
        r0 = r_corner.pop()
        apex_angle = oracles.corner_angle(radii.apex, r0, r0)
        base_angle = oracles.corner_angle(r0, radii.apex, r0)
        assert apex_angle == pytest.approx(math.pi / (2 * genus), abs=1e-9)
        assert base_angle == pytest.approx(math.pi / (4 * genus), abs=1e-9)


def angle_sums(tri, radii):
    """The apex's angle sum and each vertex's, by the law of cosines."""
    n = tri.triangle_count
    r = [radii.vertex[v] for v in tri.corner_vertex]
    sums = {"apex": 0.0}
    sums.update((v, 0.0) for v in tri.graph.vertices)
    for i in range(n):
        j = (i + 1) % n
        sums["apex"] += oracles.corner_angle(radii.apex, r[i], r[j])
        sums[tri.corner_vertex[i]] += oracles.corner_angle(
            r[i], radii.apex, r[j])
        sums[tri.corner_vertex[j]] += oracles.corner_angle(
            r[j], r[i], radii.apex)
    return sums


def test_packing_angle_sums(reference_runs):
    for name, run in reference_runs.items():
        tri = cone_triangulation(run.final.graph)
        for v, total in angle_sums(tri, circle_pack(tri)).items():
            assert total == pytest.approx(2 * math.pi, abs=1e-10), (name, v)


def test_packing_matches_exact_oracle(reference_runs):
    # A label can sit within 1e-10 of a rounding boundary of the 6-decimal
    # SVG (ex3's e57 label has y = -0.4678515000110), so radii a few 1e-12
    # off can change the bytes; the drawing must match 50-digit radii.
    for name, run in reference_runs.items():
        tri = cone_triangulation(run.final.graph)
        radii = circle_pack(tri)
        apex, vertex = oracles.exact_packing(tri)
        exact = PackingRadii(float(apex),
                             {v: float(r) for v, r in vertex.items()})
        assert radii.apex == pytest.approx(exact.apex, abs=1e-12), name
        assert radii.vertex.keys() == exact.vertex.keys(), name
        for v, r in exact.vertex.items():
            assert radii.vertex[v] == pytest.approx(r, abs=1e-12), (name, v)
        structure = run.report.polygons or ()
        assert (emit_svg(develop(tri, radii), structure)
                == emit_svg(develop(tri, exact), structure)), name


def test_corner_angle_derivatives():
    # the closed form against central differences of the law of cosines
    def angle(r, i):
        return oracles.corner_angle(r[i], *(r[s] for s in range(3) if s != i))

    rng = random.Random(20)
    h = 1e-6
    for _ in range(50):
        r = [rng.uniform(0.05, 3.0) for _ in range(3)]
        theta, d_radius = hyplayout._corner_angles(np.array([r]))
        for i in range(3):
            assert theta[0, i] == pytest.approx(angle(r, i), abs=1e-12)
            for p in range(3):
                up, down = list(r), list(r)
                up[p] += h
                down[p] -= h
                numeric = (angle(up, i) - angle(down, i)) / (2 * h)
                assert d_radius[0, i, p] == pytest.approx(
                    numeric, rel=1e-6, abs=1e-7), (r, i, p)


def test_packing_wide_final_graphs():
    # The first 20 words of the classify-wide stream, drawn as in
    # benchmarks/corpus.py (genus 4-5, length 10-16); that workload draws no
    # SVG, so nothing else packs graphs this large.
    draw = random.Random("classify-wide")
    largest = 0
    for _ in range(20):
        genus = draw.randint(4, 5)
        length = draw.randint(10, 16)
        names = sorted(standard_generators(genus))
        word = [(draw.choice(names), draw.choice((1, -1)))
                for _ in range(length)]
        graph = bestvina_handel(compose_word(genus, word)).map.graph
        largest = max(largest, len(graph.vertices))
        tri = cone_triangulation(graph)
        radii = circle_pack(tri)
        for v, total in angle_sums(tri, radii).items():
            assert total == pytest.approx(2 * math.pi, abs=1e-10), (word, v)
        develop(tri, radii)
    assert largest >= 12


def test_packing_rejects_genus_one():
    with pytest.raises(GraphStructureError):
        circle_pack(cone_triangulation(standard_rose(1)))
    # genus 2 fits, but the genus-2 rose with edge 1 split at the valence-two
    # vertex 1 gives that vertex only two corners
    split = EmbeddedGraph({1: (0, 1), 5: (1, 0), 2: (0, 0), 3: (0, 0),
                           4: (0, 0)}, (1, 5, 2, -5, -1, -2, 3, 4, -3, -4))
    with pytest.raises(GraphStructureError, match="^vertex 1 has angle "
                       "deficit: fewer than three polygon corners descend "
                       "to it$"):
        circle_pack(cone_triangulation(split))


def test_packing_sweep_cap(monkeypatch):
    monkeypatch.setattr(hyplayout, "MAX_NEWTON_STEPS", 1)
    tri = cone_triangulation(standard_rose(2))
    with pytest.raises(PackingDidNotConverge):
        circle_pack(tri)


def _patched_solve(monkeypatch, scale):
    """Make the packing's Newton solve return ``scale`` times its step
    while the largest residual is at least 1e-10; returns the list of
    ``(step, newton)`` pairs, with each step as the line search left it."""
    solve = np.linalg.solve
    steps = []

    def scaled(jac, residual):
        newton = solve(jac, residual)
        if np.abs(residual).max() < 1e-10:
            return newton
        steps.append((scale * newton, newton))
        return steps[-1][0]

    monkeypatch.setattr(np.linalg, "solve", scaled)
    return steps


def test_packing_line_search_halves_a_long_step(monkeypatch):
    # eight times the Newton step overshoots; halving it three times gives
    # the Newton step back, and the packing is unique
    tri = cone_triangulation(standard_rose(2))
    want = circle_pack(tri)
    steps = _patched_solve(monkeypatch, 8.0)
    got = circle_pack(tri)
    assert any(np.array_equal(step, newton) for step, newton in steps)
    assert got.apex == pytest.approx(want.apex, abs=1e-12)
    assert got.vertex.keys() == want.vertex.keys()
    for v, r in want.vertex.items():
        assert got.vertex[v] == pytest.approx(r, abs=1e-12)


def test_packing_gives_up_on_an_uphill_step(monkeypatch):
    # uphill steps soon stop lowering the residual: the line search halves
    # the last step 60 times and gives up long before the cap
    steps = _patched_solve(monkeypatch, -1.0)
    with pytest.raises(PackingDidNotConverge, match="^angle sums still off "
                       r"by \S+ when the Newton solve stopped$"):
        circle_pack(cone_triangulation(standard_rose(2)))
    assert len(steps) < hyplayout.MAX_NEWTON_STEPS
    step, newton = steps[-1]
    assert np.array_equal(step, -newton * 0.5 ** 60)


def test_geodesic_through_the_center_is_a_line():
    # two corners on one diameter: a straight segment, drawn as M ... L ...
    p, q = (0.3, 0.0), (-0.2, 0.0)
    geo = hyplayout._geodesic(p, q)
    assert geo == ("line",)
    assert (hyplayout._path(p, q, geo)
            == "M 0.300000 0.000000 L -0.200000 0.000000")


# ---------------------------------------------------------------------------
# Development
# ---------------------------------------------------------------------------

def test_symmetric_rose_development():
    rose = standard_rose(2)
    tri, radii, layout = build_layout(rose)
    assert layout.closure_defect <= 1e-8
    assert layout.pair_defect <= 1e-6
    rads = {abs(_c(c)) for c in layout.corners}
    assert max(rads) - min(rads) <= 1e-9
    assert max(rads) < 1.0
    points = [_c(c) for c in layout.corners]
    lengths = [oracles.disk_distance(p, q)
               for p, q in zip(points, points[1:] + points[:1])]
    assert max(lengths) - min(lengths) <= 1e-7
    # radii that are no packing leave a gap where the fan should close
    with pytest.raises(PackingDidNotConverge,
                       match="^developed fan misses closing up by 1.003e"):
        develop(tri, PackingRadii(1.0, {0: 1.0}))


def test_development_side_pairing(reference_runs):
    for name, run in reference_runs.items():
        tri, radii, layout = build_layout(run.final.graph)
        assert layout.closure_defect <= 1e-8, name
        assert layout.pair_defect <= 1e-6, name
        n = len(layout.sides)
        assert len(layout.corners) == n
        assert all(abs(_c(c)) < 1.0 for c in layout.corners)
        for i in range(n):
            j = tri.side_partner(i)
            li = oracles.disk_distance(_c(layout.corners[i]),
                                       _c(layout.corners[(i + 1) % n]))
            lj = oracles.disk_distance(_c(layout.corners[j]),
                                       _c(layout.corners[(j + 1) % n]))
            assert li == pytest.approx(lj, abs=1e-6), (name, i)
            assert layout.side_lengths[i] == pytest.approx(li, abs=1e-9)


def test_geodesics_meet_corners():
    rose = standard_rose(2)
    _, _, layout = build_layout(rose)
    for i, geo in enumerate(layout.geodesics):
        if geo[0] == "line":
            continue
        _, cx, cy, r, _sweep = geo
        # the arc's circle is orthogonal to the unit circle and passes
        # through both endpoints
        assert cx * cx + cy * cy - r * r == pytest.approx(1.0, abs=1e-9)
        for c in (layout.corners[i],
                  layout.corners[(i + 1) % len(layout.corners)]):
            assert abs(_c(c) - complex(cx, cy)) == pytest.approx(r, abs=1e-9)


# ---------------------------------------------------------------------------
# SVG output
# ---------------------------------------------------------------------------

def test_svg_well_formed_and_counts(reference_runs):
    for name, run in reference_runs.items():
        text = svg_for(run)
        root = ET.fromstring(text)
        assert root.tag == f"{SVG_NS}svg"
        paths = [el for el in root.iter(f"{SVG_NS}path")
                 if el.get("class") == "polygon-side"]
        assert len(paths) == len(run.final.graph.rho), name
        shaded = [el for el in root.iter(f"{SVG_NS}polygon")
                  if el.get("class") == "inf-polygon"]
        want = len(run.report.polygons or ())
        assert len(shaded) == want, name
        punct = [el for el in root.iter(f"{SVG_NS}circle")
                 if el.get("class") == "puncture"]
        assert len(punct) == 1
        labels = {el.text for el in root.iter(f"{SVG_NS}text")
                  if el.get("class") == "edge-label"}
        assert labels == {f"e{e}" for e in run.final.graph.edges}, name


def test_svg_is_deterministic(reference_runs):
    run = reference_runs["ex3"]
    assert svg_for(run) == svg_for(run)


def test_svg_no_nan_coordinates(reference_runs):
    for run in reference_runs.values():
        text = svg_for(run)
        assert "nan" not in text.lower()
