"""Drawing the train track inside a hyperbolic polygon.

The single complementary face of a spine graph is a disk whose boundary
reads the word rho; cutting the surface open along the graph therefore
gives a polygon with len(rho) sides, glued in pairs.  Placing a cone point
at the center (the puncture) and triangulating from it, a circle packing
finds hyperbolic radii making every angle sum exactly 2*pi, and developing
the triangles fan by fan lays the polygon out in the Poincaré disk.  Edges
of the graph become geodesic arcs between paired sides, and infinitesimal
polygons are shaded at the vertices they decorate.

Run me:  python3 demos/05_hyperbolic_layout.py  [output.svg]
"""
import math
import sys

from traintrack import (
    bestvina_handel,
    circle_pack,
    compose_word,
    cone_triangulation,
    develop,
    emit_svg,
    full_report,
)

genus = 2
word = (("a0", 1), ("c0", -1), ("d0", 1), ("d1", -1))
outcome = bestvina_handel(compose_word(genus, word))
f = outcome.map
graph = f.graph

# Step 1: triangulate the cone over the polygon's boundary.
tri = cone_triangulation(graph)
print(f"polygon with {len(tri.sides)} sides "
      f"(one per boundary direction), sides: {tri.sides}")
print("side pairing:",
      {i: tri.side_partner(i) for i in range(len(tri.sides))})

# Step 2: solve for hyperbolic radii.  The apex circle sits at the
# puncture; each boundary vertex of the polygon gets its own radius, and
# damped Newton steps on all of them at once close up every angle sum.
radii = circle_pack(tri)
print(f"\napex radius {radii.apex:.6f}")
for v in sorted(radii.vertex):
    print(f"  vertex {v} radius {radii.vertex[v]:.6f}")

# Step 3: develop into the Poincaré disk and check the closing error.
layout = develop(tri, radii)
print(f"\nclosure defect {layout.closure_defect:.2e}, "
      f"pair defect {layout.pair_defect:.2e}")
print("side hyperbolic lengths:",
      [f"{x:.4f}" for x in layout.side_lengths])
first = layout.corners[0]
print(f"first corner at ({first[0]:.4f}, {first[1]:.4f}), "
      f"Euclidean norm {math.hypot(*first):.4f} (inside the unit disk)")

# Step 4: emit the picture.  Geodesic arcs for the graph's edges, paired
# side labels, shaded infinitesimal polygons, the puncture at the center.
report = full_report(outcome)
svg = emit_svg(layout, report.polygons)
path = sys.argv[1] if len(sys.argv) > 1 else "train_track.svg"
with open(path, "w", encoding="utf-8") as handle:
    handle.write(svg)
print(f"\nwrote {len(svg)} bytes of SVG to {path}")
print(f"shaded {len(report.polygons)} infinitesimal polygons "
      f"(dilatation of the drawn track: {report.growth:.6f})")
