"""Singularity data of the invariant foliations, read off a train track map.

At each vertex, the gates (direction classes) become the cusps of the local
picture; a *taken* turn — two gates joined because some edge image passes
through them consecutively — contributes an infinitesimal edge.  Closing the
taken turns under the induced gate map and looking at the cycles these edges
form at a vertex yields the polygons of the stable foliation: a ``k``-gon is
a ``k``-pronged singularity of index ``1 - k/2``.  The puncture soaks up the
rest of the Euler-Poincare budget ``2 - 2g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bh import GrowthOne, Reducible, TrainTrack, gate_map
from .errors import InternalInvariantError
from .graphs import _turns
from .growth import is_irreducible


def infinitesimal_edges(f):
    """Gate pairs joined by a taken turn, closed under the gate map.

    ``f`` must be a train track map: a taken turn inside one gate is an
    illegal turn, and raises.  Returns a set of frozensets ``{gate1,
    gate2}``; both gates of a pair sit at one vertex.  The closure needs no
    such check: distinct gates at one vertex map to distinct gates, since a
    gate is the class of directions that some iterate of the direction map
    identifies (BH92, section 1).
    """
    induced = gate_map(f)
    # the gate map's keys are the gates, so they give each direction's gate
    gate_of = {d: gate for gate in induced for d in gate}
    images = {frozenset((gate_of[a], gate_of[b]))
              for p in f.edge_image.values() for a, b in _turns(p)}
    if any(len(pair) != 2 for pair in images):
        raise InternalInvariantError(
            "infinitesimal edges need a train track map")
    edges = set()
    while frontier := images - edges:
        edges |= frontier
        images = {frozenset(induced[g] for g in pair) for pair in frontier}
    return edges


@dataclass(frozen=True)
class InfinitesimalPolygon:
    """A cycle of ``k >= 3`` infinitesimal edges at one vertex."""
    vertex: int
    cycle: tuple  # gates in cyclic order, canonical starting point

    @property
    def k(self):
        return len(self.cycle)

    @property
    def index(self):
        """Index contribution of the ``k``-pronged singularity."""
        return Fraction(1) - Fraction(self.k, 2)

    def edge_set(self):
        k = len(self.cycle)
        return frozenset(frozenset((self.cycle[i], self.cycle[(i + 1) % k]))
                         for i in range(k))


def polygons(f, edges):
    """The polygons the infinitesimal edges form, in deterministic order.

    The edges make a simple graph on gates, so a component whose gates all
    have degree two is a cycle of at least three gates: a polygon.  Gates of
    degree three or more, or an edge across two vertices, cannot arise from
    a train track and raise :class:`InternalInvariantError`.  Polygons come
    back sorted by vertex and smallest member gate; their list position is
    the polygon's label.  Gates partition the directions, so their least
    directions differ and order them as their sorted members do.
    """

    def vertex_of(gate):
        return f.graph.tail(next(iter(gate)))

    adjacency = {}
    for pair in edges:
        g1, g2 = tuple(pair)
        if vertex_of(g1) != vertex_of(g2):
            raise InternalInvariantError(
                "infinitesimal edge spans two vertices")
        adjacency.setdefault(g1, set()).add(g2)
        adjacency.setdefault(g2, set()).add(g1)
    # a polygon lies at one vertex, so the sweep meets its smallest gate
    # first; an open chain ends in a gate of degree one
    found = []
    seen = set()
    for start in sorted(adjacency, key=lambda g: (vertex_of(g), min(g))):
        nbrs = adjacency[start]
        if len(nbrs) > 2:
            raise InternalInvariantError(
                f"gate at vertex {vertex_of(start)} carries {len(nbrs)} "
                "infinitesimal edges")
        if len(nbrs) < 2 or start in seen:
            continue
        cycle = [start, min(nbrs, key=min)]
        while cycle[-1] != start and len(adjacency[cycle[-1]]) == 2:
            (nxt,) = adjacency[cycle[-1]] - {cycle[-2]}
            cycle.append(nxt)
        seen.update(cycle)
        if cycle[-1] == start:
            found.append(InfinitesimalPolygon(vertex_of(start),
                                              tuple(cycle[:-1])))
    return found


def orbit_permutation(f, polys):
    """Label ``i`` -> label of the image polygon under the gate map.

    A gate's image holds ``f.derivative(d)`` for every ``d`` in the gate, so
    only the polygons' own gates are read; an image in none of them leaves
    the polygon's image no polygon.
    """
    gate_of = {d: g for poly in polys for g in poly.cycle for d in g}
    induced = {g: gate_of.get(f.derivative(min(g)))
               for poly in polys for g in poly.cycle}
    table = {poly.edge_set(): i for i, poly in enumerate(polys)}
    perm = []
    for poly in polys:
        image = frozenset(frozenset(induced[g] for g in pair)
                          for pair in poly.edge_set())
        if image not in table:
            raise InternalInvariantError(
                "polygon image is not again a polygon")
        target = table[image]
        if polys[target].k != poly.k:
            raise InternalInvariantError(
                "polygon image changed its number of sides")
        perm.append(target)
    if sorted(perm) != list(range(len(polys))):
        raise InternalInvariantError("polygon orbit map is not a bijection")
    return tuple(perm)


def puncture_index(genus, polys):
    """Index of the singularity at the puncture, by Euler-Poincare counting.

    The interior polygons contribute ``1 - k/2`` each and everything must sum
    to ``2 - 2g``; the prong count at the puncture, ``2 (1 - index)``, has to
    be a positive integer, which is asserted.
    """
    index = Fraction(2 - 2 * genus) - sum((p.index for p in polys), Fraction(0))
    prongs = 2 * (1 - index)
    if prongs.denominator != 1 or prongs < 1:
        raise InternalInvariantError(
            f"puncture prong count {prongs} is not a positive integer")
    return index


@dataclass(frozen=True)
class SingularityReport:
    """Everything the pipeline learned about one mapping class.

    ``verdict`` is ``"PseudoAnosov"``, ``"GrowthOne"`` or ``"Reducible"``.
    ``polygons`` holds the :class:`InfinitesimalPolygon` objects in label
    order, as :func:`polygons` returns them, and ``orbit[i]`` is the label
    of polygon ``i``'s image; growth/polygons/puncture data that does not
    apply is ``None`` (growth is exactly 1.0 for GrowthOne).
    """
    verdict: str
    growth: float | None
    polygons: tuple | None
    puncture_index: Fraction | None
    orbit: tuple | None


def full_report(outcome):
    """Assemble the singularity report for a finished algorithm outcome."""
    if isinstance(outcome, Reducible):
        return SingularityReport("Reducible", None, None, None, None)
    if isinstance(outcome, GrowthOne):
        return SingularityReport("GrowthOne", 1.0, None, None, None)
    if not isinstance(outcome, TrainTrack):
        raise TypeError(f"not an algorithm outcome: {outcome!r}")
    f = outcome.map
    if outcome.growth <= 1.0 or not is_irreducible(f.transition_matrix()):
        raise InternalInvariantError(
            "train track outcome without irreducible growth > 1")
    edges = infinitesimal_edges(f)
    polys = polygons(f, edges)
    orbit = orbit_permutation(f, polys)
    punct = puncture_index(f.graph.genus, polys)
    return SingularityReport("PseudoAnosov", outcome.growth, tuple(polys),
                             punct, orbit)
