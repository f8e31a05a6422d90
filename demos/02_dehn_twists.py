"""Dehn twists as graph self-maps.

A Dehn twist along a simple closed curve c cuts the surface open along c,
rotates one side by a full turn, and reglues.  On a spine graph the twist
becomes a self-map: each edge crossing c picks up a copy of c in its image.
Composing twists of the standard generating curves produces a self-map of
the rose representing any mapping class we care to study.

Run me:  python3 demos/02_dehn_twists.py
"""
from traintrack import compose_word, dehn_twist, standard_generators, standard_rose

# The generator names at genus g: a0..a{g-1} twist along the "holes",
# d0..d{g-1} along the dual loops, c0..c{g-1} along curves connecting
# consecutive holes.  Together they generate the whole mapping class group
# of the once-punctured surface.
rose = standard_rose(2)
curves = standard_generators(2)
print("genus-2 generating curves (edge paths on the rose):")
for name in sorted(curves):
    print(f"  {name}: {curves[name]}")

# A single twist.  Edges disjoint from the curve are fixed; edges crossing
# it are rerouted around the curve once.
f = dehn_twist(rose, curves["c0"])
print("\nedge images under the twist along c0:")
for e in sorted(f.edge_image):
    print(f"  {e} -> {f.edge_image[e]}")

# Words compose leftmost-outermost: the rightmost letter acts first, like
# function composition.  Signs select the twist direction.
word = (("a1", 1), ("c0", 1), ("d0", 1), ("a1", 1), ("d1", 1), ("a1", 1))
g = compose_word(2, word)
print("\ncomposite of the word", " ".join(n for n, _ in word))
for e in sorted(g.edge_image):
    print(f"  {e} -> {g.edge_image[e]}")

# The transition matrix counts unsigned edge crossings; its growth under
# iteration is what the rest of the library analyses.
print("\ntransition matrix (rows/cols in edge order):")
for row in g.transition_matrix():
    print("  ", [int(x) for x in row])

# Twists are homeomorphisms, so the boundary word around the puncture is
# preserved up to rotation; the library checks this invariant for every
# move it performs.
print("\npreserves the boundary word:", g.preserves_boundary())
