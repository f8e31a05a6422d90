"""Finding an efficient representative: the train track algorithm.

The composite of Dehn twists is rarely efficient as given: iterating it
makes edge images backtrack, so the transition matrix overstates the true
stretching.  The algorithm below repeatedly simplifies the map —
collapsing invariant trees, removing valence-two vertices, subdividing and
folding at illegal turns, each move pulling tight the images it builds —
strictly decreasing the growth rate until one of three stable outcomes
appears:

  * TrainTrack  — the map is efficient; its growth is the dilatation of a
                  pseudo-Anosov mapping class;
  * Reducible   — an invariant proper subgraph survives, exhibiting a
                  reduction of the mapping class;
  * GrowthOne   — the map permutes edges, so the class has finite order.

Run me:  python3 demos/03_bestvina_handel.py
"""
from collections import Counter

from traintrack import (
    GrowthOne,
    Reducible,
    TrainTrack,
    bestvina_handel,
    compose_word,
    gates,
    spectral_radius,
)

# A hook sees every move as it happens.  We tally the moves and watch the
# growth rate fall.
for label, genus, word in (
    ("pseudo-Anosov", 2, (("a1", 1), ("c0", 1), ("d0", 1),
                          ("a1", 1), ("d1", 1), ("a1", 1))),
    ("reducible", 2, (("d0", 1), ("c0", 1), ("d1", 1))),
    ("finite order", 2, (("d0", 1), ("d0", -1))),
):
    f = compose_word(genus, word)
    start = spectral_radius(f.transition_matrix())
    tally = Counter()

    def hook(name, g, **info):
        tally[name] += 1

    outcome = bestvina_handel(f, hook=hook)
    final = spectral_radius(outcome.map.transition_matrix())
    print(f"{label}: {' '.join(n for n, _ in word)}")
    print(f"  moves: {dict(tally)}")
    print(f"  growth driven from {start:.6f} down to {final:.6f}")
    if isinstance(outcome, TrainTrack):
        print(f"  train track with dilatation {outcome.growth:.10f}")
        print(f"  gates: {len(set(gates(outcome.map).values()))}")
        print(f"  final edge images:")
        for e in sorted(outcome.map.edge_image):
            print(f"    {e} -> {outcome.map.edge_image[e]}")
    elif isinstance(outcome, Reducible):
        print(f"  invariant subgraph on edges {sorted(outcome.invariant_edges)}")
    elif isinstance(outcome, GrowthOne):
        print(f"  the map permutes {len(outcome.map.graph.edges)} edges")
    print()
