"""A first look at embedded graphs: the spine of a punctured surface.

A once-punctured orientable surface of genus g deformation-retracts onto a
graph.  To remember the surface, the graph carries one extra piece of data:
the boundary word ``rho``, the cyclic sequence of directions one meets when
walking around the puncture.  Everything else — the rotation system at each
vertex, the Euler characteristic, the genus — can be read off from it.

Run me:  python3 demos/01_embedded_graphs.py
"""
from traintrack import EmbeddedGraph, standard_rose

# The standard rose for genus 2: one vertex, four loops x1, y1, x2, y2
# (edge ids 1..4), whose boundary word spells the product of commutators
# [x1, y1][x2, y2].  A direction is a signed edge id: +e leaves the tail
# of e, -e leaves its head.
rose = standard_rose(2)
print("genus-2 rose")
print("  edges:", dict(rose.edges))
print("  boundary word rho:", rose.rho)
print("  vertices:", sorted(rose.vertices))
print("  valence of vertex 0:", rose.valence(0))
print("  genus recovered from the data:", rose.genus)

# The boundary word determines the cyclic order of directions at each
# vertex: rotating by one step in the boundary is the map
# d -> successor(-d), and reading off successors sorts the star of a
# vertex counterclockwise.
print("  rotation order at vertex 0:", rose.rotation_order(0))

# Graphs do not need to be roses.  Here is the theta graph — two vertices
# joined by three parallel edges — embedded so that the complement is a
# single disk containing the puncture.  That makes it a spine of the
# once-punctured torus.
theta = EmbeddedGraph(
    edges={1: (0, 1), 2: (0, 1), 3: (0, 1)},
    rho=(1, -2, 3, -1, 2, -3),
)
print("\ntheta graph")
print("  edges:", dict(theta.edges))
print("  boundary word rho:", theta.rho)
print("  genus:", theta.genus)
print("  rotation system:",
      {v: theta.rotation_order(v) for v in theta.vertices})

# Validation is strict: a boundary word whose complement is not a single
# disk is rejected at construction time.  The word below embeds the wedge
# of two circles in the plane, where the complement has three faces.
from traintrack import GraphStructureError

try:
    EmbeddedGraph(edges={1: (0, 0), 2: (0, 0)}, rho=(1, -1, 2, -2))
except GraphStructureError as err:
    print("\nrejected a multi-face boundary word:")
    print("  ", err)

# A spine has no leaf either: the train track algorithm runs on graphs
# without a vertex of valence one, and construction is where that is
# decided.  Here the genus-1 rose grows an edge 3 out to vertex 1, which
# then meets that edge alone.
try:
    EmbeddedGraph(edges={1: (0, 0), 2: (0, 0), 3: (0, 1)},
                  rho=(1, 2, -1, -2, 3, -3))
except GraphStructureError as err:
    print("rejected a spine with a leaf:")
    print("  ", err)
