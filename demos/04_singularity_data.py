"""Reading the invariant foliations off a train track.

An efficient map carries more than its dilatation.  Grouping directions at
each vertex into gates (two directions are in one gate when some iterate
of the derivative identifies them) and recording which gate pairs are
actually crossed by edge images yields the infinitesimal structure: small
polygons at the vertices.  A k-gon of the structure is a k-pronged
singularity of the invariant foliations, with index 1 - k/2; the puncture
accounts for whatever index the interior singularities miss, because the
indices of the whole foliated surface must add up to the Euler
characteristic 2 - 2g.

Run me:  python3 demos/04_singularity_data.py
"""
from fractions import Fraction

from traintrack import (
    bestvina_handel,
    compose_word,
    full_report,
    gate_map,
    gates,
    infinitesimal_edges,
    orbit_permutation,
    polygons,
    puncture_index,
)

genus = 2
word = (("a0", 1), ("c0", -1), ("d0", 1), ("d1", -1))
outcome = bestvina_handel(compose_word(genus, word))
f = outcome.map

print("word:", " ".join(("-" if s < 0 else "") + n for n, s in word))
print("dilatation:", f"{outcome.growth:.10f}")

# Gates partition the directions at each vertex.
gate_of = gates(f)
by_vertex = {}
for d, gate in gate_of.items():
    by_vertex.setdefault(f.graph.tail(d), set()).add(gate)
print("\ngates per vertex:")
for v in sorted(by_vertex):
    print(f"  vertex {v}: {len(by_vertex[v])} gates "
          f"{sorted(sorted(g) for g in by_vertex[v])}")

# The derivative permutes the gates; this is the map the foliation's
# singularities inherit.
print("\nderivative action on gates:")
for gate, image in sorted(gate_map(f).items(), key=lambda kv: sorted(kv[0])):
    print(f"  {sorted(gate)} -> {sorted(image)}")

# Infinitesimal edges join gates that an edge image actually crosses;
# closed chains of them bound the infinitesimal polygons.
inf = infinitesimal_edges(f)
polys = polygons(f, inf)
print(f"\n{len(inf)} infinitesimal edges, {len(polys)} polygons:")
for i, poly in enumerate(polys):
    print(f"  polygon {i}: k={poly.k}, index {poly.index}")
perm = orbit_permutation(f, polys)
print("orbit permutation of the polygons:", perm)

# The puncture's own singularity balances the books.
punct = puncture_index(genus, polys)
total = sum((p.index for p in polys), Fraction(0)) + punct
print(f"puncture index: {punct}")
print(f"index sum {total} equals 2 - 2g = {2 - 2 * genus}")

# full_report bundles all of the above for any outcome.
report = full_report(outcome)
print("\nbundled report:", report)
