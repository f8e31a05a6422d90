"""The train track algorithm for self-maps of punctured-surface spines.

Moves are pure functions: each takes a :class:`GraphSelfMap` and returns a
new one (or the input object itself when nothing applies).  Each move that
changes the graph is a homotopy equivalence given by a letter table, and
one path, ``_rebuild``, pushes the old images through that table onto the
new graph.  The valence-two move is BH92's valence-two homotopy: it
collapses one of the two edges at the vertex, and the other collapse
follows from the first by a slide along the fresh edge.  After every move
the boundary word must still be preserved and the genus unchanged; these
checks are cheap and always on.  Images are tight by construction, so
BH92's pull-tight move never applies.  The main loop runs rounds.  A round
simplifies (collapsing invariant forests, removing low-valence vertices)
and stops at one of three outcomes:

* :class:`TrainTrack` — every turn taken by an edge image is legal and the
  transition matrix is irreducible with growth > 1,
* :class:`GrowthOne` — the transition matrix became a permutation matrix,
* :class:`Reducible` — an essential invariant subgraph remains.

Otherwise it folds along the derivative orbit of the first illegal turn
until letters cancel.  Each fold pass is one partial fold (BH92, section
1): the subdivisions that prepare it rewrite an unbuilt copy of the map in
the subdivided graph's own letters, and the fold's letter table builds the
map from that copy, so the map is rebuilt and checked once per pass.  A
subdivision never cancels a letter, so nothing is lost by not building the
maps in between.  When a subdivision splits the turn's last occurrence, the
new valence-two vertex x is kept and folding goes on along x's orbit until
removing x cancels.

Termination rests on three statements of Bestvina and Handel (BH92: Train
tracks and automorphisms of free groups, Annals 135, 1992, section 1 and
the proof of Theorem 1.7; BH95: Train-tracks for surface homeomorphisms,
Topology 34, 1995), for the Perron-Frobenius growth λ of the transition
matrix:

* cancellation in the images of an irreducible map lowers λ strictly;
* valence-one, valence-two, forest-collapse and subdivision moves never
  raise λ;
* below any bound, the Perron-Frobenius eigenvalues of non-negative integer
  matrices of bounded size form a finite set, and with no vertex of valence
  one or two the edge count is at most ``6g - 3``.

So the loop stops if every round cancels.  That is checked exactly, on
integer image lengths, not on λ: a round that cancels no letter raises
:class:`InternalInvariantError`.  Real rounds lower λ by as little as
4e-13, below any float margin.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    GraphStructureError,
    InternalInvariantError,
    IterationLimitExceeded,
    MapCompatibilityError,
)
from .graphs import (EmbeddedGraph, GraphSelfMap, _path_image, reverse_path,
                     substitute, tighten)
from .growth import (
    is_irreducible,
    is_permutation_matrix,
    sink_components,
    spectral_radius,
)

# safety net: by the descent argument above no input reaches this many rounds
MAX_ROUNDS = 10000


@dataclass(frozen=True)
class TrainTrack:
    """Terminal state: an efficient representative with its growth rate."""
    map: GraphSelfMap
    growth: float


@dataclass(frozen=True)
class Reducible:
    """Terminal state: ``invariant_edges`` span an essential invariant subgraph."""
    map: GraphSelfMap
    invariant_edges: frozenset


@dataclass(frozen=True)
class GrowthOne:
    """Terminal state: the map permutes edges up to orientation (growth 1)."""
    map: GraphSelfMap


def _noop_hook(name, f, **info):
    return None


def _subst(path, table):
    # letter substitution: ``table`` lists only the directions that change
    out = []
    for d in path:
        rep = table.get(d)
        if rep is None:
            out.append(d)
        else:
            out.extend(rep)
    return out


def _rebuild(move, f, edges, rho, table, vertex_image, images):
    """The map ``f`` pushed through a move onto the graph ``(edges, rho)``.

    A move is a homotopy equivalence given by a letter table, which spells a
    path of the graph the move starts from in the new graph's letters (see
    :func:`_subst`).  That start graph is f's, or a fold's
    :class:`_Subdivision` of it, and each call reads one letter space, the
    start graph's: ``rho`` is its boundary word, read from where the move
    needs it, and ``images`` the tight image of every edge the new graph
    keeps or adds.  ``vertex_image`` is the vertex map on the new graph.
    An image that holds a letter of the table is translated and tightened
    in one pass (:func:`~.graphs.substitute`); any other is kept as it is.
    """
    graph = EmbeddedGraph(edges, _subst(rho, table))
    keys = table.keys()
    new = GraphSelfMap(graph, vertex_image, {
        e: p if keys.isdisjoint(p := images[e]) else substitute(p, table)
        for e in edges})
    # every move must fix the puncture loop and the surface
    if graph.genus != f.graph.genus:
        raise InternalInvariantError(f"{move} changed the genus")
    if not new.preserves_boundary():
        raise InternalInvariantError(f"{move} broke the boundary word")
    return new


def _merge_vertices(move, vertex_image, rep, dropped=None):
    """``vertex_image`` once each vertex ``z`` becomes ``rep.get(z, z)``;
    ``dropped`` leaves the graph."""
    merged = {}
    for z, fz in vertex_image.items():
        if z == dropped:
            continue
        r, w = rep.get(z, z), rep.get(fz, fz)
        if merged.setdefault(r, w) != w:
            raise InternalInvariantError(
                f"{move} merged vertices with different images")
    return merged


def _contract(graph, edges):
    """Vertex -> representative once ``edges`` are shrunk to points.

    Each representative is the smallest vertex of its component; returns
    None when ``edges`` contain a cycle.
    """
    parent = {v: v for v in graph.vertices}

    def find(v):
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    for e in edges:
        ru, rv = find(graph.tail(e)), find(graph.head(e))
        if ru == rv:
            return None
        parent[ru] = rv
    groups = {}
    for v in graph.vertices:
        groups.setdefault(find(v), []).append(v)
    return {v: min(members) for members in groups.values() for v in members}


def _collapse_edges(f, forest, rep):
    """Collapse a forest of edges whose images stay inside the forest;
    ``rep`` is its contraction, as :func:`_contract` gives it."""
    g = f.graph
    for e in forest:
        for d in f.edge_image[e]:
            if abs(d) not in forest:
                raise InternalInvariantError(
                    "collapse target is not invariant under the map")
    edges = {e: (rep[u], rep[v])
             for e, (u, v) in g.edges.items() if e not in forest}
    table = {d: () for e in forest for d in (e, -e)}
    vertex_image = _merge_vertices("collapse", f.vertex_image, rep)
    return _rebuild("collapse", f, edges, g.rho, table, vertex_image,
                    f.edge_image)


def remove_valence_one(f):
    """Retract the lowest-id valence-one vertex; ``f`` itself when none exist."""
    g = f.graph
    leaves = [v for v in g.vertices if g.valence(v) == 1]
    if not leaves:
        return f
    v = min(leaves)
    (germ,) = g.directions(v)
    u = abs(germ)
    # rho turns around at a leaf: it holds the consecutive pair (-germ, germ),
    # and dropping both letters removes exactly that corner
    edges = {e: uv for e, uv in g.edges.items() if e != u}
    table = {u: (), -u: ()}
    vertex_image = _merge_vertices("valence_one", f.vertex_image,
                                   {v: g.head(germ)}, v)
    return _rebuild("valence_one", f, edges, g.rho, table, vertex_image,
                    f.edge_image)


def remove_valence_two(f):
    """Collapse one of the two edges at the lowest-id valence-two vertex.

    This is BH92's valence-two homotopy.  The path through the vertex
    becomes a single fresh edge, and the vertex goes with whichever of its
    two edges collapses.  Each collapse is a homotopy equivalence, but the
    two differ wherever another vertex maps onto the removed one, so they
    can give different growth rates; the smaller rate is kept, which keeps
    it non-increasing across the move, and only the kept side is built.
    Returns ``f`` itself when no valence-two vertex exists.
    """
    candidates = [v for v in f.graph.vertices if f.graph.valence(v) == 2]
    return _merge_through(f, min(candidates)) if candidates else f


def _merge_through(f, v):
    """remove_valence_two at ``v``: collapse |b|, or slide to collapse |a|.

    The edges |a| and |b| are distinct and neither is a loop, so x and y
    differ from v.  A loop at ``v`` would take both its germs, so ``v``
    would meet no other edge and, a spine being connected, the loop would
    be the whole graph: V = E = 1 gives an odd 2g, which
    :class:`EmbeddedGraph` rejects.
    """
    g = f.graph
    a, b = g.rotation_order(v)
    x, y = g.head(a), g.head(b)
    # the fresh edge m runs from x to y along (-a, b).  Collapsing |b| moves
    # v to y and leaves |a| as m; collapsing |a| moves v to x and leaves |b|
    m = max(g.edges) + 1
    edges = {e: uv for e, uv in g.edges.items() if e not in (abs(a), abs(b))}
    edges[m] = (x, y)
    # rho passes v only as (-a, b) and (-b, a), which both collapses spell
    # as m and -m; rotated to start at -a, rho starts with m
    i0 = g.rho.index(-a)
    rho = g.rho[i0:] + g.rho[:i0]
    new = _rebuild("valence_two", f, edges, rho,
                   {b: (), -b: (), -a: (m,), a: (-m,)},
                   _merge_vertices("valence_two", f.vertex_image, {v: y}, v),
                   {**f.edge_image, m: _path_image(f.edge_image, (-a, b))})
    # the two collapses are homotopic relative to every vertex but v, whose
    # track is m, and a tight path is unique in its homotopy class: so the
    # |a| side slides each z that maps to v back to x, along m
    slide = {z for z, w in f.vertex_image.items() if w == v and z != v}
    if not slide:
        return new
    images = {e: tighten((m,) * (t in slide) + new.edge_image[e]
                         + (-m,) * (h in slide))
              for e, (t, h) in edges.items() if t in slide or h in slide}
    # only row m, the last, of the transition matrix changes; ties keep the
    # |b| side, whose direction b follows a in the rotation at v
    matrix = new.transition_matrix()
    lam = spectral_radius(matrix)
    order = sorted(edges)
    for e, p in images.items():
        matrix[-1, order.index(e)] = p.count(m) + p.count(-m)
    if lam <= spectral_radius(matrix) + 1e-12:
        return new
    return _rebuild("valence_two", f, edges, rho,
                    {a: (), -a: (), b: (m,), -b: (-m,)},
                    {**new.vertex_image, **dict.fromkeys(slide, x)},
                    {**new.edge_image, **images})


class _Subdivision:
    """The graph of ``f`` with edges subdivided, and the map on it, unbuilt.

    ``edges``, ``rho``, ``vertex_image`` and ``edge_image`` spell the
    subdivided graph and its map in that graph's own letters: a split
    rewrites ``rho`` and, in place, only the images that cross the split
    edge.  ``splits`` lists every split as ``(edge, at, into)``, the
    arguments and new edge ids of :func:`subdivide`.  A subdivided tight
    path is still tight, so a move that ends the preparation builds the map
    once.  A split's new vertex has just the inner ends ``(-e1, e2)`` of its
    halves, which is where a fold pass reads x's turn from.
    """

    def __init__(self, f):
        self.f = f
        self.edges = dict(f.graph.edges)
        self.rho = f.graph.rho
        self.vertex_image = dict(f.vertex_image)
        self.edge_image = dict(f.edge_image)
        self.splits = []

    def tail(self, d):
        if abs(d) not in self.edges:
            raise GraphStructureError(f"unknown edge in direction {d}")
        t, h = self.edges[abs(d)]
        return t if d > 0 else h

    def head(self, d):
        return self.tail(-d)

    def image(self, d):
        p = self.edge_image[abs(d)]
        return p if d > 0 else reverse_path(p)

    def takes(self, a, b):
        """Whether some edge image takes the turn ``(a, b)``."""
        pairs = ((-a, b), (-b, a))
        for p in self.edge_image.values():
            if any(pair in pairs for pair in zip(p, p[1:])):
                return True
        return False

    def split(self, e, k, p):
        """Split edge ``e`` at position ``k`` of its image ``p``, which is
        ``self.image(e)``, as :func:`subdivide` does; returns the new edges
        and vertex."""
        e1, e2 = max(self.edges) + 1, max(self.edges) + 2
        z = max(self.vertex_image) + 1
        self.vertex_image[z] = self.head(p[k - 1])
        t, h = self.edges.pop(e)
        self.edges[e1], self.edges[e2] = (t, z), (z, h)
        step = {e: (e1, e2), -e: (-e2, -e1)}
        self.rho = tuple(_subst(self.rho, step))
        images = self.edge_image
        del images[e]
        for c, q in images.items():
            if e in q or -e in q:
                images[c] = tuple(_subst(q, step))
        images[e1] = tuple(_subst(p[:k], step))
        images[e2] = tuple(_subst(p[k:], step))
        self.splits.append((e, k, (e1, e2)))
        return e1, e2, z


def subdivide(f, e, k):
    """Split edge ``e`` at position ``k`` of its image path.

    The new halves get ids ``max+1``, ``max+2`` and the new vertex maps to
    the endpoint of the image prefix of length ``k``; the growth rate is
    untouched.  ``k`` must satisfy ``0 < k < len(image)``.
    """
    if e not in f.graph.edges:
        raise ValueError(f"unknown edge {e!r}")
    n = len(f.edge_image[e])
    if not 0 < k < n:
        raise ValueError(
            f"subdivision point {k} out of range for image of length {n}")
    prep = _Subdivision(f)
    prep.split(e, k, f.edge_image[e])
    return _rebuild("subdivide", f, prep.edges, prep.rho, {},
                    prep.vertex_image, prep.edge_image)


def _fold(prep, d1, d2):
    """Fold two directions of the subdivided graph of ``prep`` (a partial
    fold); returns the map and the number of letters tightening cancelled.

    The two edges merge into a fresh edge and their far endpoints into one
    vertex.  The fold pass prepares ``d1`` and ``d2``, so each broken
    precondition raises :class:`InternalInvariantError`: they live at one
    vertex on distinct edges, have equal nonempty images, are adjacent in
    the rotation through exactly one of their two corners, and their far
    endpoints differ.
    """
    if abs(d1) == abs(d2):
        raise InternalInvariantError("fold needs two distinct edges")
    v = prep.tail(d1)
    if prep.tail(d2) != v:
        raise InternalInvariantError("fold needs directions at one vertex")
    p1, p2 = prep.image(d1), prep.image(d2)
    if not p1 or p1 != p2:
        raise InternalInvariantError("fold needs equal nonempty images")
    rho = prep.rho
    # d' succeeds d in the rotation when rho steps along -d, then d'
    succ = {-a: b for a, b in zip(rho, rho[1:] + rho[:1])}
    adj12 = succ[d1] == d2
    adj21 = succ[d2] == d1
    if adj12 == adj21:
        raise InternalInvariantError(
            "fold needs directions adjacent through exactly one corner")
    w1, w2 = prep.head(d1), prep.head(d2)
    if w1 == w2:
        raise InternalInvariantError(
            "parallel fold: far endpoints already agree")
    w = min(w1, w2)
    rep = {w1: w, w2: w}
    fused = max(prep.edges) + 1
    # the corner being sewn shut shows up in rho as (-first, second); rotate
    # rho so the pair sits at the front and drop it, every other occurrence
    # of the two edges becomes the fused edge
    i0 = rho.index(-(d1 if adj12 else d2))
    rotated = rho[i0:] + rho[:i0]
    edges = {e: (rep.get(t, t), rep.get(h, h))
             for e, (t, h) in prep.edges.items()
             if e not in (abs(d1), abs(d2))}
    edges[fused] = (rep.get(v, v), w)
    images = {**prep.edge_image, fused: p1}
    new = _rebuild("fold", prep.f, edges, rotated[2:], {
        d1: (fused,), d2: (fused,), -d1: (-fused,), -d2: (-fused,)},
        _merge_vertices("fold", prep.vertex_image, rep), images)
    # the fold replaces letters one for one, so any shortfall is cancellation
    return new, sum(len(images[e]) - len(new.edge_image[e]) for e in edges)


def gates(f):
    """Partition directions by eventual collision under the direction map.

    Two directions at a vertex belong to one gate iff some iterate of the
    direction map sends them to the same direction.  On ``n`` directions
    the ``n``-th iterate lands on cycles, where the map is a bijection, so
    any later iterate decides this too, and ``n.bit_length()`` squarings
    reach one.  Returns direction -> gate (one frozenset object per gate).
    """
    g = f.graph
    dirs = [d for e in sorted(g.edges) for d in (e, -e)]
    power = {d: f.derivative(d) for d in dirs}
    for _ in range(len(dirs).bit_length()):
        power = {d: power[power[d]] for d in dirs}
    groups = {}
    for d in dirs:
        groups.setdefault((g.tail(d), power[d]), []).append(d)
    gate_of = {}
    for members in groups.values():
        gate = frozenset(members)
        for d in members:
            gate_of[d] = gate
    return gate_of


def gate_map(f, gate_of=None):
    """The induced map on gates (well-defined because gates are D-coherent)."""
    if gate_of is None:
        gate_of = gates(f)
    out = {}
    for gate in set(gate_of.values()):
        images = {gate_of[f.derivative(d)] for d in gate}
        if len(images) != 1:
            raise InternalInvariantError("direction map tears a gate apart")
        out[gate] = images.pop()
    return out


def _first_illegal_turn(f, gate_of):
    # deterministic scan: smallest edge id, earliest position in its image
    for e in sorted(f.graph.edges):
        p = f.edge_image[e]
        for a, b in zip(p, p[1:]):
            if gate_of[-a] == gate_of[b]:
                return (-a, b)
    return None


def is_train_track(f):
    """Whether no edge image takes a turn inside a single gate.

    Equivalent to every iterate of every edge image being tight, which is the
    efficiency the main loop drives toward.
    """
    return _first_illegal_turn(f, gates(f)) is None


def _no_pretrivial_loops(f):
    for e, p in f.edge_image.items():
        if not p and f.graph.tail(e) == f.graph.head(e):
            # collapsing would change the fundamental group and subdividing
            # needs a nonempty image; a homotopy equivalence never does this
            raise InternalInvariantError(f"loop {e} has a trivial image")


def _simplify(f, hook):
    """Drive collapsing/valence moves to a joint fixed point.

    Returns the map, its transition matrix and the edge sets of the proper
    sink components (the minimal invariant subgraphs) by smallest edge id:
    empty exactly when the matrix is irreducible, and never a forest, since
    forests are collapsed.
    """
    while True:
        _no_pretrivial_loops(f)
        m = f.transition_matrix()
        sinks = []
        if not is_irreducible(m):
            order = sorted(f.graph.edges)
            sinks = [{order[j] for j in comp} for comp in sink_components(m)]
            if not sinks:
                raise InternalInvariantError(
                    "reducible matrix without a proper sink component")
        # the first sink that contracts, and its contraction ``rep``
        forest = next((s for s in sinks
                       if (rep := _contract(f.graph, s)) is not None), None)
        if forest is not None:
            f = _collapse_edges(f, forest, rep)
            hook("collapse", f, edges=sorted(forest))
            continue
        new = remove_valence_one(f)
        if new is not f:
            f = new
            hook("valence_one", f)
            continue
        new = remove_valence_two(f)
        if new is not f:
            f = new
            hook("valence_two", f)
            continue
        return f, m, sinks


def _adjacent_fold_pair(f, t1, t2):
    """Pick the rotation-adjacent pair of directions that the fold acts on.

    If the walked pair is already adjacent, use it.  Otherwise scan the two
    rotation arcs between them for one whose directions all share a
    derivative, and fold its first two members.  Failing both, any adjacent
    pair with equal derivatives does (one exists whenever the image of the
    boundary word cancels, which is forced while the matrix is irreducible
    and not a permutation).
    """
    g = f.graph
    if g.successor(t1) == t2:
        return t1, t2
    if g.successor(t2) == t1:
        return t2, t1
    for a, b in ((t1, t2), (t2, t1)):
        arc = (a,) + g.arc(a, b) + (b,)
        want = f.derivative(a)
        if all(f.derivative(x) == want for x in arc):
            return arc[0], arc[1]
    for v in sorted(g.vertices):
        for x in g.rotation_order(v):
            y = g.successor(x)
            if x != y and f.derivative(x) == f.derivative(y):
                return x, y
    raise InternalInvariantError("no adjacent foldable pair exists")


def _common_prefix_len(p, q):
    n = 0
    for a, b in zip(p, q):
        if a != b:
            break
        n += 1
    return n


def _letter_to_split(prep, c):
    """The direction whose edge to subdivide so that the letter ``c`` grows.

    Subdividing ``|c|`` turns every ``c`` into two letters, but needs an
    image of two or more letters; when that image is the single letter
    ``c'``, ``c'`` must grow first, and so on along the chain.  ``prep`` is
    the :class:`_Subdivision` being prepared.
    """
    for _ in range(len(prep.edges)):
        if len(prep.image(c)) > 1:
            return c
        (c,) = prep.image(c)
    raise InternalInvariantError("one-letter edge images close up into a cycle")


def _fold_pass(f, o1, o2, x, hook):
    """Fold once at the merge point of the turn ``(o1, o2)``'s derivative orbit.

    Returns the new map, the renamed turn and ``x``, and the number of
    letters the pass cancels.  ``x`` is None while an edge image takes the
    turn.  The subdivision that splits its last occurrence, into halves e1
    and e2, makes x: x is its new vertex and the turn becomes x's own,
    ``(-e1, e2)``, the inner ends of the halves.  Renames in later splits
    keep each direction's sign.  No fold takes a segment ending at x.  A pair
    that fills a valence-two vertex has a degenerate turn: the pass removes
    the vertex, as :func:`remove_valence_two` does, instead of folding.

    Otherwise the pass is one partial fold.  The pair's edges are split at
    the end of their common image prefix, and, while x is a far end, first
    at the last half letter that x keeps.  These splits are bookkeeping on a
    :class:`_Subdivision`, not moves, and the fold builds the map once.  Two
    edges with equal images never share their far endpoint too, since the
    loop they bound would map to a point; :func:`_fold` checks this.
    """
    t1, t2 = o1, o2
    guard = 2 * len(f.graph.edges) + 2
    while f.derivative(t1) != f.derivative(t2):
        t1, t2 = f.derivative(t1), f.derivative(t2)
        guard -= 1
        if guard < 0:
            raise InternalInvariantError("derivative orbit never merged")
    d1, d2 = _adjacent_fold_pair(f, t1, t2)
    v = f.graph.tail(d1)
    if f.graph.valence(v) == 2:
        # no single corner separates the pair, so folding is meaningless;
        # removing v cancels their common image prefix.  It comes before
        # any other valence move, whose collapses could undo that
        n = len(f.edge_image[abs(d1)]) + len(f.edge_image[abs(d2)])
        cancelled = n - len(_path_image(f.edge_image, (-d1, d2)))
        f = _merge_through(f, v)
        hook("valence_two", f)
        return f, None, None, None, cancelled
    prep = _Subdivision(f)

    def split(d, length):
        # subdivide |d| so that d keeps an image of ``length``, and rename
        # the directions the pass follows; a rename keeps a direction's
        # sign.  A split keeps every occurrence of the turn but the one it
        # cuts, so only such a cut can take the last one, and then its new
        # vertex is x and the turn is x's own
        nonlocal d1, d2, o1, o2, x
        e = abs(d)
        p = prep.image(e)
        k = length if d > 0 else len(p) - length
        took = x is None and (p[k - 1], p[k]) in ((-o1, o2), (-o2, o1))
        e1, e2, z = prep.split(e, k, p)
        rename = {e: e1, -e: -e2}
        d1, d2, o1, o2 = (rename.get(t, t) for t in (d1, d2, o1, o2))
        if took and not prep.takes(o1, o2):
            x, o1, o2 = z, -e1, e2

    for _ in range(len(f.graph.edges) + 8):
        p1, p2 = prep.image(d1), prep.image(d2)
        if p1 == p2 and x not in (prep.head(d1), prep.head(d2)):
            break
        if p1 != p2:
            shared = _common_prefix_len(p1, p2)
        else:
            # the whole edges may not fold, since x must keep valence two.
            # Fold all but the last half letter, so that letter's edge is
            # split first
            c = _letter_to_split(prep, p1[-1])
            split(c, 1)
            if c != p1[-1] or prep.image(d1) != prep.image(d2):
                # a step along a chain of one-letter images, or the pair's
                # own edge was split: prepare afresh
                continue
            shared = len(p1)
            p1 = prep.image(d1)
        if shared < 1:
            raise InternalInvariantError("fold pair lost its common prefix")
        split(d1 if len(p1) > shared else d2, shared)
    else:
        raise InternalInvariantError("fold preparation did not settle")
    f, cancelled = _fold(prep, d1, d2)
    fused = max(f.graph.edges)
    hook("fold", f, edges=sorted((abs(d1), abs(d2))), into=fused,
         directions=(d1, d2), splits=prep.splits)
    rename = {d1: fused, d2: fused, -d1: -fused, -d2: -fused}
    return f, rename.get(o1, o1), rename.get(o2, o2), x, cancelled


def bestvina_handel(f, hook=None):
    """Run the train track algorithm on a boundary-preserving self-map.

    A map that does not preserve the boundary word raises
    :class:`MapCompatibilityError`, and a round that cancels no letter
    :class:`InternalInvariantError`.  By the descent argument in the module
    docstring no input should reach :data:`MAX_ROUNDS` rounds;
    :class:`IterationLimitExceeded` after that many stays as a safety net.

    ``hook(name, map, **details)`` is called after every individual move with
    the map *after* the move; pass one to trace or audit a run.
    """
    hook = hook or _noop_hook
    if not f.preserves_boundary():
        raise MapCompatibilityError(
            "input map does not preserve the boundary word")
    for _ in range(MAX_ROUNDS):
        f, m, sinks = _simplify(f, hook)
        # permutation first: the identity matrix is also reducible, but a
        # permutation means a finite-order (growth one) class, not a reduction
        if is_permutation_matrix(m):
            return GrowthOne(f)
        if sinks:
            # the lowest sink is the witness; _simplify returns only once no
            # sink contracts, so it is no forest and is essential
            return Reducible(f, frozenset(sinks[0]))
        gate_of = gates(f)
        turn = _first_illegal_turn(f, gate_of)
        if turn is None:
            return TrainTrack(f, spectral_radius(m))
        # passes fold along the turn's derivative orbit, shortening it (or
        # the rotation arc between the pair), until letters cancel; the cap
        # is a safety net far above any round seen
        o1, o2 = turn
        x = None
        for _ in range((2 * len(f.graph.edges) + 2) ** 2):
            f, o1, o2, x, cancelled = _fold_pass(f, o1, o2, x, hook)
            if cancelled > 0:
                break
        else:
            # the descent that ends this loop needs every round to cancel
            raise InternalInvariantError("fold round cancelled no letter")
    raise IterationLimitExceeded(
        f"no train track representative within {MAX_ROUNDS} rounds")
