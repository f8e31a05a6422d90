"""The train track algorithm for self-maps of punctured-surface spines.

Moves are private steps of the loop.  Each is a homotopy equivalence
given by a letter table and a vertex merge, applied to a draft of the map
(:class:`_Subdivision`): a fold's subdivided draft, or f's own.  One path,
``_rebuild``, derives the new graph and map from those two: the edges the
table names leave, every other edge keeps its ends through the merge, and
the old images are pushed through the table.  The valence-two move is
BH92's valence-two homotopy: it collapses one of the two edges at the
vertex, each by its own table, and keeps the side of smaller growth.  After
every move the boundary word must still be preserved and the genus
unchanged; these checks are cheap and always on.
Images are tight by construction, so BH92's pull-tight move never applies.
The main loop runs rounds.  A round simplifies (collapsing invariant
forests, removing valence-two vertices) and stops at one of three outcomes:

* :class:`TrainTrack` — every turn taken by an edge image is legal and the
  transition matrix is irreducible with growth > 1,
* :class:`GrowthOne` — the transition matrix became a permutation matrix,
* :class:`Reducible` — an essential invariant subgraph remains.

Otherwise one function, ``_fold_round``, folds along the derivative orbit
of the first illegal turn until letters cancel, and the loop starts the
next round.  Each fold pass is one partial fold (BH92, section 1) that sews
one corner ``(d, successor(d))`` of the rotation: the pass names d, and
the fold finds the corner in rho once.  The subdivisions that prepare it
rewrite an unbuilt copy of the map, with one direction table, in the
subdivided graph's own letters, and the fold's letter table builds the map
from that copy, so the map is rebuilt and checked once per pass.  A
subdivision never cancels a letter, so nothing is lost by not building the
maps in between.  When a subdivision splits the turn's last
occurrence, the new valence-two vertex x is kept and folding goes on
along x's orbit until removing x cancels.

Termination rests on three statements of Bestvina and Handel (BH92: Train
tracks and automorphisms of free groups, Annals 135, 1992, section 1 and
the proof of Theorem 1.7; BH95: Train-tracks for surface homeomorphisms,
Topology 34, 1995), for the Perron-Frobenius growth λ of the transition
matrix:

* cancellation in the images of an irreducible map lowers λ strictly;
* valence-two, forest-collapse and subdivision moves never raise λ;
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
from .graphs import EmbeddedGraph, GraphSelfMap, _path_image, _turns, substitute
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


def _rebuild(move, start, table, rep, rho, fresh=None, dropped=None):
    """The map of the draft ``start`` pushed through one move.

    A move is a homotopy equivalence given by a letter table and a vertex
    merge.  The table spells a path of the start graph in the new graph's
    letters (see :func:`_subst`), and every edge it names leaves the graph.
    ``rep`` sends a vertex to the vertex it joins; every other edge keeps
    its ends, read off the draft's direction table through ``rep``, and
    ``dropped`` leaves the graph.  The draft ``start`` is a
    :class:`_Subdivision`: a fold's, or one of f with no split.  Each call
    reads one letter space, the draft's: ``rho`` is its boundary word, read
    from where the move needs it, and ``fresh`` is ``(edge, (tail, head),
    image)`` for the one edge a move may add.  An image that holds a letter
    of the table is translated and tightened in one pass
    (:func:`~.graphs.substitute`); any other is kept as it is.
    """
    vertex_image = {}
    for z, fz in start.vertex_image.items():
        if z == dropped:
            continue
        r, w = rep.get(z, z), rep.get(fz, fz)
        if vertex_image.setdefault(r, w) != w:
            raise InternalInvariantError(
                f"{move} merged vertices with different images")
    kept = [(e, (start._tail[e], start._tail[-e]), p)
            for e, p in start.edge_image.items() if e not in table]
    if fresh is not None:
        kept.append(fresh)
    keys = table.keys()
    edges, images = {}, {}
    for e, (t, h), p in kept:
        edges[e] = (rep.get(t, t), rep.get(h, h))
        images[e] = p if keys.isdisjoint(p) else substitute(p, table)
    graph = EmbeddedGraph(edges, _subst(rho, table))
    new = GraphSelfMap(graph, vertex_image, images)
    # every move must fix the puncture loop and the surface
    if graph.genus != start.f.graph.genus:
        raise InternalInvariantError(f"{move} changed the genus")
    if not new.preserves_boundary():
        raise InternalInvariantError(f"{move} broke the boundary word")
    return new


def _contract(graph, edges):
    """Vertex -> representative once ``edges`` are shrunk to points.

    Each representative is the smallest vertex of its component; returns
    None when ``edges`` contain a cycle.
    """
    parent = {v: v for v in graph.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

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
    for e in forest:
        for d in f.edge_image[e]:
            if abs(d) not in forest:
                raise InternalInvariantError(
                    "collapse target is not invariant under the map")
    table = {d: () for e in forest for d in (e, -e)}
    return _rebuild("collapse", _Subdivision(f), table, rep, f.graph.rho)


def _merge_through(f, v):
    """Remove the valence-two vertex ``v``: collapse |b| or |a|, each side
    built from f by its own letter table.

    The path through ``v`` becomes one fresh edge m.  The two collapses are
    homotopic relative to every vertex but ``v``, whose track is m, so they
    differ only in how often the images of edges with an end mapped onto
    ``v`` cross m, and can give different growth rates.  The smaller is
    kept, which keeps growth non-increasing, and only the kept side is built.

    The edges |a| and |b| are distinct and neither is a loop, so x and y
    differ from v.  A loop at ``v`` would take both its germs, so ``v``
    would meet no other edge and, a spine being connected, the loop would
    be the whole graph: V = E = 1 gives an odd 2g, which
    :class:`EmbeddedGraph` rejects.
    """
    start = _Subdivision(f)
    a, b = f.graph.rotation_order(v)
    x, y = start.head(a), start.head(b)
    # the fresh edge m runs from x to y along (-a, b).  Collapsing |b| moves
    # v to y and leaves |a| as m; collapsing |a| moves v to x and leaves |b|
    # (a side is named by its collapsed edge: x and y coincide on a bigon)
    m = max(start.edge_image) + 1
    image_m = _path_image(start.edge_image, (-a, b))
    # rho passes v only as (-a, b) and (-b, a), which both collapses spell
    # as m and -m; rotated to start at -a, rho starts with m
    i0 = start.rho.index(-a)
    rho = start.rho[i0:] + start.rho[:i0]
    table_b = {b: (), -b: (), -a: (m,), a: (-m,)}
    table_a = {a: (), -a: (), b: (m,), -b: (-m,)}

    def collapse(table, w):
        return _rebuild("valence_two", start, table, {v: w}, rho,
                        (m, (x, y), image_m), dropped=v)

    new = collapse(table_b, y)
    edges = new.graph.edges
    moved = [e for e, uv in edges.items() if v in map(f.vertex_image.get, uv)]
    if not moved:
        return new
    # only row m, the last, of the transition matrix changes; ties keep the
    # |b| side, whose direction b follows a in the rotation at v
    matrix = new.transition_matrix()
    lam = spectral_radius(matrix)
    order = sorted(edges)
    # row m of the |a| side counts b and -b in each image, since table_a
    # (drop +-a, rename +-b) cancels nothing.  A tight path passes v inside
    # only as (-a, b) or (-b, a): a dropped a follows a -b and comes before
    # a letter from x, a dropped -a comes before a b and follows a letter
    # into x, and the inverse of that -b or b starts or ends at v, not at x
    for e in moved:
        p = image_m if e == m else f.edge_image[e]
        matrix[-1, order.index(e)] = p.count(b) + p.count(-b)
    if lam <= spectral_radius(matrix) + 1e-12:
        return new
    return collapse(table_a, x)


class _Subdivision:
    """The draft a move is built from: the graph of ``f`` with edges
    subdivided, and the map on it, unbuilt.

    Every move starts from one, with no split unless it is a fold.
    ``_tail``, ``rho``, ``vertex_image`` and ``edge_image`` spell the
    subdivided graph and its map in that graph's own letters: ``_tail`` is
    its one direction -> tail table, as in :class:`EmbeddedGraph`, and the
    keys of ``edge_image`` are its edges.  A split rewrites ``rho`` and, in
    place, only the images that cross the split edge.  ``tail``, ``head``
    and ``image`` are the readers of :class:`EmbeddedGraph` and
    :class:`GraphSelfMap`.  ``splits`` lists every split as ``(edge, at,
    into)``: the edge, where its image was cut, and its halves.  A
    subdivided tight path is still tight, so a move that ends the
    preparation builds it once.  A split's new vertex has just the inner
    ends ``(-e1, e2)`` of its halves, which is where a fold pass reads x's
    turn from.
    """

    tail, head = EmbeddedGraph.tail, EmbeddedGraph.head
    image = GraphSelfMap.image

    def __init__(self, f):
        self.f = f
        self._tail = dict(f.graph._tail)
        self.rho = f.graph.rho
        self.vertex_image = dict(f.vertex_image)
        self.edge_image = dict(f.edge_image)
        self.splits = []

    def takes(self, a, b):
        """Whether some edge image takes the turn ``(a, b)``."""
        turns = ((a, b), (b, a))
        for p in self.edge_image.values():
            if any(t in turns for t in _turns(p)):
                return True
        return False

    def split(self, e, k):
        """Split edge ``e`` after the first ``k`` letters of its image, into
        halves ``max+1`` and ``max+2`` that meet at a new vertex mapped to
        where those letters end; returns the halves and that vertex."""
        p = self.edge_image[e]
        e1, e2 = max(self.edge_image) + 1, max(self.edge_image) + 2
        z = max(self.vertex_image) + 1
        self.vertex_image[z] = self.head(p[k - 1])
        t, h = self._tail.pop(e), self._tail.pop(-e)
        self._tail.update({e1: t, -e1: z, e2: z, -e2: h})
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


def _fold(prep, d1, d2):
    """Fold the corner ``(d1, d2)`` of the draft ``prep`` (a partial fold);
    returns the map, the fused edge and how many letters cancelled.

    The two edges merge into a fresh edge and their far endpoints into one
    vertex.  The corner is found in rho once: rho steps along ``-d1`` and
    then ``d2`` exactly when ``d2`` follows ``d1`` in the rotation at the
    vertex both leave.  The fold round prepares the corner, so each broken
    precondition raises :class:`InternalInvariantError`: ``d2`` follows
    ``d1``, their images are equal and nonempty, and their far endpoints
    differ.  That the two lie on distinct edges needs no check of its own:
    ``-d1`` never follows ``d1``, since rho would step along ``-d1`` twice,
    and ``d1`` follows itself only at a leaf, where the far endpoints agree
    or the image is empty.
    """
    v = prep.tail(d1)
    # rotate rho to start at the corner; sewing it shut drops the pair, and
    # every other occurrence of the two edges becomes the fused edge
    i0 = prep.rho.index(-d1)
    rotated = prep.rho[i0:] + prep.rho[:i0]
    if rotated[1] != d2:
        raise InternalInvariantError("fold needs d2 to follow d1")
    p1, p2 = prep.image(d1), prep.image(d2)
    if not p1 or p1 != p2:
        raise InternalInvariantError("fold needs equal nonempty images")
    w1, w2 = prep.head(d1), prep.head(d2)
    if w1 == w2:
        raise InternalInvariantError(
            "parallel fold: far endpoints already agree")
    w = min(w1, w2)
    fused = max(prep.edge_image) + 1
    new = _rebuild("fold", prep, {
        d1: (fused,), d2: (fused,), -d1: (-fused,), -d2: (-fused,)},
        {w1: w, w2: w}, rotated[2:], (fused, (v, w1), p1))
    # the fold replaces letters one for one, so any shortfall is
    # cancellation; the fused edge's image p1 stands for both |d1| and |d2|
    return new, fused, (sum(map(len, prep.edge_image.values())) - len(p1)
                        - sum(map(len, new.edge_image.values())))


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


def gate_map(f):
    """The induced map on gates, well defined: two directions of a gate
    share a vertex and an iterate of the direction map, so their images
    share the image vertex and the next iterate."""
    gate_of = gates(f)
    return {gate_of[d]: gate_of[f.derivative(d)] for d in gate_of}


def _first_illegal_turn(f, gate_of):
    # deterministic scan: smallest edge id, earliest position in its image
    for e in sorted(f.graph.edges):
        for a, b in _turns(f.edge_image[e]):
            if gate_of[a] == gate_of[b]:
                return (a, b)
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
    """Drive forest collapses and valence-two removals to a fixed point.

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
        # the lowest-id vertex of valence two.  bestvina_handel takes no
        # leaf, and no move makes one: a fold keeps its vertex at valence
        # two or more and the merged far end at three or more, collapsing a
        # tree leaves valence two or more, removing a valence-two vertex
        # keeps both its neighbours, and a split's new vertex has valence two
        valence, v = min((f.graph.valence(v), v) for v in f.graph.vertices)
        if valence == 1:
            raise InternalInvariantError("a move made a leaf")
        if valence == 2:
            f = _merge_through(f, v)
            hook("valence_two", f)
        else:
            return f, m, sinks


def _fold_corner(f, t1, t2):
    """The direction d whose rotation corner ``(d, successor(d))`` the fold
    acts on.

    If the walked pair is already such a corner, it is.  Otherwise scan the
    two rotation arcs between them for one whose directions all share a
    derivative, and take its first corner.  Failing both, any corner with
    equal derivatives does (one exists whenever the image of the boundary
    word cancels, which is forced while the matrix is irreducible and not a
    permutation).
    """
    g = f.graph
    if g.successor(t1) == t2:
        return t1
    if g.successor(t2) == t1:
        return t2
    for a, b in ((t1, t2), (t2, t1)):
        want = f.derivative(a)
        if all(f.derivative(x) == want for x in g.arc(a, b) + (b,)):
            return a
    for v in sorted(g.vertices):
        for x in g.rotation_order(v):
            y = g.successor(x)
            if x != y and f.derivative(x) == f.derivative(y):
                return x
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
    for _ in range(len(prep.edge_image)):
        if len(prep.image(c)) > 1:
            return c
        (c,) = prep.image(c)
    raise InternalInvariantError("one-letter edge images close up into a cycle")


def _fold_round(f, o1, o2, hook):
    """Fold along the derivative orbit of the illegal turn ``(o1, o2)``
    until letters cancel; returns the map.

    Each pass folds once at the merge point of the turn's derivative orbit.
    ``x`` is None while an edge image takes the turn.  The subdivision that
    splits its last occurrence, into halves e1 and e2, makes x: x is its new
    vertex and the turn becomes x's own, ``(-e1, e2)``, the inner ends of
    the halves.  Renames in later splits keep each direction's sign.  No
    fold takes a segment ending at x.  A pair that fills a valence-two
    vertex has a degenerate turn: the pass removes the vertex with
    :func:`_merge_through` instead of folding, and that ends the round.

    Otherwise the pass is one partial fold of the corner ``(d1, d2)``, with
    ``d2`` the successor of ``d1`` that :func:`_fold_corner` names; splits
    rename both and keep them a corner.  The pair's edges are split at
    the end of their common image prefix, and, while x is a far end, first
    at the last half letter that x keeps.  These splits are bookkeeping on a
    :class:`_Subdivision`, not moves, and the fold builds the map once.  Two
    edges with equal images never share their far endpoint too, since the
    loop they bound would map to a point; :func:`_fold` checks this.
    """
    x = None

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
        took = x is None and (-p[k - 1], p[k]) in ((o1, o2), (o2, o1))
        e1, e2, z = prep.split(e, k)
        rename = {e: e1, -e: -e2}
        d1, d2, o1, o2 = (rename.get(t, t) for t in (d1, d2, o1, o2))
        if took and not prep.takes(o1, o2):
            x, o1, o2 = z, -e1, e2

    # each pass shortens the turn's derivative orbit or the rotation arc
    # between the pair; the cap is a safety net far above any round seen
    for _ in range((2 * len(f.graph.edges) + 2) ** 2):
        t1, t2 = o1, o2
        guard = 2 * len(f.graph.edges) + 2
        while f.derivative(t1) != f.derivative(t2):
            t1, t2 = f.derivative(t1), f.derivative(t2)
            guard -= 1
            if guard < 0:
                raise InternalInvariantError("derivative orbit never merged")
        d1 = _fold_corner(f, t1, t2)
        d2 = f.graph.successor(d1)
        v = f.graph.tail(d1)
        if f.graph.valence(v) == 2:
            # no single corner separates the pair, so folding is
            # meaningless; removing v cancels their common image prefix.  It
            # comes before any other valence move, whose collapses could
            # undo that.  The walked pair is v's whole rotation, so tier 1
            # of _fold_corner names it: both images start with the same
            # letter, and removing v always cancels
            f = _merge_through(f, v)
            hook("valence_two", f)
            return f
        prep = _Subdivision(f)
        for _ in range(len(f.graph.edges) + 8):
            p1, p2 = prep.image(d1), prep.image(d2)
            if p1 == p2 and x not in (prep.head(d1), prep.head(d2)):
                break
            if p1 != p2:
                shared = _common_prefix_len(p1, p2)
            else:
                # the whole edges may not fold, since x must keep valence
                # two.  Fold all but the last half letter, so that letter's
                # edge is split first
                c = _letter_to_split(prep, p1[-1])
                split(c, 1)
                if c != p1[-1] or prep.image(d1) != prep.image(d2):
                    # a step along a chain of one-letter images, or the
                    # pair's own edge was split: prepare afresh
                    continue
                shared = len(p1)
                p1 = prep.image(d1)
            if shared < 1:
                raise InternalInvariantError("fold pair lost its common prefix")
            split(d1 if len(p1) > shared else d2, shared)
        else:
            raise InternalInvariantError("fold preparation did not settle")
        f, fused, cancelled = _fold(prep, d1, d2)
        hook("fold", f, edges=sorted((abs(d1), abs(d2))), into=fused,
             directions=(d1, d2), splits=prep.splits)
        if cancelled > 0:
            return f
        rename = {d1: fused, d2: fused, -d1: -fused, -d2: -fused}
        o1, o2 = rename.get(o1, o1), rename.get(o2, o2)
    # the descent that ends the loop needs every round to cancel
    raise InternalInvariantError("fold round cancelled no letter")


def bestvina_handel(f, hook=None):
    """Run the train track algorithm on a boundary-preserving self-map.

    A graph with a vertex of valence one raises
    :class:`GraphStructureError`, a map that does not preserve the boundary
    word :class:`MapCompatibilityError`, and a round that cancels no letter
    :class:`InternalInvariantError`.  By the descent argument in the module
    docstring no input should reach :data:`MAX_ROUNDS` rounds;
    :class:`IterationLimitExceeded` after that many stays as a safety net.

    ``hook(name, map, **details)`` is called after every individual move with
    the map *after* the move; pass one to trace or audit a run.
    """
    hook = hook or _noop_hook
    leaf = next((v for v in f.graph.vertices if f.graph.valence(v) == 1),
                None)
    if leaf is not None:
        raise GraphStructureError(f"vertex {leaf} has valence one")
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
        turn = _first_illegal_turn(f, gates(f))
        if turn is None:
            return TrainTrack(f, spectral_radius(m))
        f = _fold_round(f, *turn, hook)
    raise IterationLimitExceeded(
        f"no train track representative within {MAX_ROUNDS} rounds")
