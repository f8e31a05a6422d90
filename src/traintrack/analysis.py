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

from .bh import GrowthOne, Reducible, TrainTrack, _first_illegal_turn, gate_map, gates
from .errors import InternalInvariantError
from .growth import is_irreducible


def _gate_key(gate):
    return tuple(sorted(gate))


def infinitesimal_edges(f):
    """Gate pairs joined by a taken turn, closed under the gate map.

    ``f`` must be a train track map (no illegal taken turns).  Returns a set
    of frozensets ``{gate1, gate2}``; both gates of a pair sit at one vertex.
    """
    gate_of = gates(f)
    if _first_illegal_turn(f, gate_of) is not None:
        raise InternalInvariantError(
            "infinitesimal edges need a train track map")
    taken = set()
    for e in sorted(f.graph.edges):
        p = f.edge_image[e]
        for a, b in zip(p, p[1:]):
            taken.add(frozenset((gate_of[-a], gate_of[b])))
    induced = gate_map(f, gate_of)
    edges = set(taken)
    frontier = taken
    while frontier:
        step = set()
        for pair in frontier:
            g1, g2 = tuple(pair)
            image = frozenset((induced[g1], induced[g2]))
            if len(image) != 2:
                raise InternalInvariantError(
                    "gate map collapses an infinitesimal edge")
            if image not in edges:
                step.add(image)
        edges |= step
        frontier = step
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

    Builds, per vertex, the graph on gates with the given edges; its simple
    cycles (length >= 3) are the polygons.  Gates of degree three or more,
    or two-cycles, cannot arise from a train track and raise
    :class:`InternalInvariantError`.  Polygons come back sorted by vertex and
    smallest member gate; their list position is the polygon's label.
    """

    def vertex_of(gate):
        return f.graph.tail(next(iter(gate)))

    by_vertex = {}
    for pair in edges:
        g1, g2 = tuple(pair)
        v = vertex_of(g1)
        if vertex_of(g2) != v:
            raise InternalInvariantError(
                "infinitesimal edge spans two vertices")
        by_vertex.setdefault(v, []).append((g1, g2))
    found = []
    for v in sorted(by_vertex):
        adjacency = {}
        for g1, g2 in by_vertex[v]:
            adjacency.setdefault(g1, set()).add(g2)
            adjacency.setdefault(g2, set()).add(g1)
        for gate, nbrs in adjacency.items():
            if len(nbrs) > 2:
                raise InternalInvariantError(
                    f"gate at vertex {v} carries {len(nbrs)} infinitesimal edges")
        seen = set()
        for start in sorted(adjacency, key=_gate_key):
            if start in seen:
                continue
            component = {start}
            queue = [start]
            while queue:
                for nxt in adjacency[queue.pop()]:
                    if nxt not in component:
                        component.add(nxt)
                        queue.append(nxt)
            seen |= component
            if any(len(adjacency[gate]) != 2 for gate in component):
                continue  # an open chain, not a polygon
            if len(component) < 3:
                raise InternalInvariantError(
                    f"two-gate cycle at vertex {v} in the infinitesimal graph")
            anchor = min(component, key=_gate_key)
            second = min(adjacency[anchor], key=_gate_key)
            cycle = [anchor, second]
            while len(cycle) < len(component):
                (nxt,) = adjacency[cycle[-1]] - {cycle[-2]}
                cycle.append(nxt)
            found.append(InfinitesimalPolygon(v, tuple(cycle)))
    return found


def orbit_permutation(f, polys):
    """Label ``i`` -> label of the image polygon under the gate map."""
    induced = gate_map(f)
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
