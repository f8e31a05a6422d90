"""The train track algorithm for self-maps of punctured-surface spines.

Moves are pure functions: each takes a :class:`GraphSelfMap` and returns a
new one (or the input object itself when nothing applies).  Each move that
changes the graph is a homotopy equivalence given by a letter substitution,
and one path, ``_rebuild``, pushes the map through it.  After every move
the boundary word must still be preserved and the genus unchanged; these
checks are cheap and always on.  The main loop tightens the input once, then
runs rounds.  A round simplifies (collapsing invariant forests, removing
low-valence vertices) and stops at one of three outcomes:

* :class:`TrainTrack` — every turn taken by an edge image is legal and the
  transition matrix is irreducible with growth > 1,
* :class:`GrowthOne` — the transition matrix became a permutation matrix,
* :class:`Reducible` — an essential invariant subgraph remains.

Otherwise it folds along the derivative orbit of the first illegal turn
until letters cancel.  When a subdivision splits the turn's last
occurrence, the new valence-two vertex x is kept and folding goes on along
x's orbit until merging through x cancels.

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

from .errors import InternalInvariantError, IterationLimitExceeded
from .graphs import EmbeddedGraph, GraphSelfMap, reverse_path, tighten
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


def _check_move(move, old, new):
    # every move must fix the puncture loop and the surface
    if new.graph.genus != old.graph.genus:
        raise InternalInvariantError(f"{move} changed the genus")
    if not new.preserves_boundary():
        raise InternalInvariantError(f"{move} broke the boundary word")
    return new


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


def _rebuild(move, f, edges, rho, translate, *versions):
    """The map ``f`` pushed through a move onto the graph ``(edges, rho)``.

    A move is a homotopy equivalence given by ``translate``, which spells a
    path of f's graph in the new graph's letters; ``rho`` is f's boundary
    word, read from where the move needs it.  Each version is a vertex image
    on the new graph and images, in f's letters, of every edge the new graph
    keeps or adds: f's own, or f's after a homotopy.  Those images are
    translated and tightened.  Of several versions the one whose map has the
    smallest growth is kept (ties keep the earlier one), so that the move
    does not raise it.
    """
    graph = EmbeddedGraph(edges, translate(rho))
    maps = [GraphSelfMap(graph, vertex_image,
                         {e: tighten(translate(images[e])) for e in edges})
            for vertex_image, images in versions]
    if len(maps) > 1:
        lams = [spectral_radius(h.transition_matrix()) for h in maps]
        maps = [h for h, lam in zip(maps, lams) if lam <= min(lams) + 1e-12]
    return _check_move(move, f, maps[0])


def _merge_vertices(move, f, rep, dropped=None):
    """The vertex image of ``f`` once each vertex ``z`` becomes
    ``rep.get(z, z)``; ``dropped`` leaves the graph."""
    vertex_image = {}
    for z, fz in f.vertex_image.items():
        if z == dropped:
            continue
        r, w = rep.get(z, z), rep.get(fz, fz)
        if vertex_image.setdefault(r, w) != w:
            raise InternalInvariantError(
                f"{move} merged vertices with different images")
    return vertex_image


def pull_tight(f):
    """Tighten every edge image; returns ``f`` itself when already tight."""
    images = {e: tighten(p) for e, p in f.edge_image.items()}
    if images == f.edge_image:
        return f
    new = GraphSelfMap(f.graph, dict(f.vertex_image), images)
    return _check_move("pull_tight", f, new)


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


def _collapse_edges(f, forest):
    """Collapse a forest of edges whose images stay inside the forest."""
    g = f.graph
    for e in forest:
        for d in f.edge_image[e]:
            if abs(d) not in forest:
                raise InternalInvariantError(
                    "collapse target is not invariant under the map")
    rep = _contract(g, forest)
    if rep is None:
        raise InternalInvariantError("collapse target contains a cycle")
    edges = {e: (rep[u], rep[v])
             for e, (u, v) in g.edges.items() if e not in forest}
    table = {d: () for e in forest for d in (e, -e)}
    return _rebuild("collapse", f, edges, g.rho, lambda p: _subst(p, table),
                    (_merge_vertices("collapse", f, rep), f.edge_image))


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
    vertex_image = _merge_vertices("valence_one", f, {v: g.head(germ)}, v)
    return _rebuild("valence_one", f, edges, g.rho,
                    lambda p: _subst(p, table), (vertex_image, f.edge_image))


def remove_valence_two(f):
    """Merge the two edges at the lowest-id valence-two vertex.

    Vertices mapping onto the doomed vertex are first slid off it across one
    of the two incident edges, then the straight path through the vertex
    becomes a single fresh edge.  Sliding is a homotopy of the map, so it can
    change the growth rate; both slide directions are tried and the one with
    the smaller resulting rate is kept, which keeps the rate non-increasing
    across the move.  Returns ``f`` itself when no valence-two vertex
    exists.
    """
    candidates = [v for v in f.graph.vertices if f.graph.valence(v) == 2]
    return _merge_through(f, min(candidates)) if candidates else f


def _merge_through(f, v):
    # remove_valence_two at the valence-two vertex v
    g = f.graph
    a, b = g.rotation_order(v)
    if abs(a) == abs(b):
        # both germs of one loop: the component would be a lone circle
        raise InternalInvariantError("valence-two loop cannot exist at genus >= 1")
    x, y = g.head(a), g.head(b)
    if x == v or y == v:
        raise InternalInvariantError("valence-two edge loops back unexpectedly")

    m = max(g.edges) + 1
    abs_old = (abs(a), abs(b))

    def merged(path):
        out = []
        i = 0
        while i < len(path):
            pair = tuple(path[i:i + 2])
            if pair == (-a, b):
                out.append(m)
                i += 2
            elif pair == (-b, a):
                out.append(-m)
                i += 2
            else:
                if abs(path[i]) in abs_old:
                    raise InternalInvariantError(
                        f"stray half-edge while merging through vertex {v}")
                out.append(path[i])
                i += 1
        return out

    edges = {e: uv for e, uv in g.edges.items() if e not in abs_old}
    edges[m] = (x, y)
    i0 = g.rho.index(-a)
    movers = {z for z in g.vertices if f.vertex_image[z] == v}

    def slid(through, target):
        # slide every vertex mapping to v across ``through`` (a direction
        # based at v), so its image becomes ``target``

        def image(d):
            pre = (-through,) if g.tail(d) in movers else ()
            post = (through,) if g.head(d) in movers else ()
            p = f.image(d)
            return tighten(pre + p + post) if pre or post else p

        images = {e: image(e) for e in edges if e != m}
        images[m] = tighten(image(-a) + image(b))
        return _merge_vertices("valence_two", f, {v: target}, v), images

    versions = [slid(b, y)]
    if movers:
        # the slide direction matters; ties keep the rotation-successor side
        versions.append(slid(a, x))
    return _rebuild("valence_two", f, edges, g.rho[i0:] + g.rho[:i0], merged,
                    *versions)


def subdivide(f, e, k):
    """Split edge ``e`` at position ``k`` of its image path.

    The new halves get ids ``max+1``, ``max+2`` and the new vertex maps to
    the endpoint of the image prefix of length ``k``; the growth rate is
    untouched.  ``k`` must satisfy ``0 < k < len(image)``.
    """
    g = f.graph
    if e not in g.edges:
        raise ValueError(f"unknown edge {e!r}")
    p = f.edge_image[e]
    if not 0 < k < len(p):
        raise ValueError(
            f"subdivision point {k} out of range for image of length {len(p)}")
    e1, e2 = max(g.edges) + 1, max(g.edges) + 2
    z = max(g.vertices) + 1
    edges = {x: uv for x, uv in g.edges.items() if x != e}
    edges[e1] = (g.tail(e), z)
    edges[e2] = (z, g.head(e))
    table = {e: (e1, e2), -e: (-e2, -e1)}
    vertex_image = {**f.vertex_image, z: g.head(p[k - 1])}
    return _rebuild("subdivide", f, edges, g.rho, lambda q: _subst(q, table),
                    (vertex_image, {**f.edge_image, e1: p[:k], e2: p[k:]}))


def fold(f, d1, d2):
    """Identify two rotation-adjacent directions with identical image paths.

    The two edges merge into a fresh edge and their far endpoints merge into
    one vertex.  Preconditions (violations raise
    :class:`InternalInvariantError`, since the main loop is responsible for
    preparing them): ``d1``/``d2`` live at one vertex on distinct edges, have
    equal nonempty image paths, are adjacent in the rotation through exactly
    one of their two corners, and their far endpoints differ.
    """
    g = f.graph
    if abs(d1) == abs(d2):
        raise InternalInvariantError("fold needs two distinct edges")
    v = g.tail(d1)
    if g.tail(d2) != v:
        raise InternalInvariantError("fold needs directions at one vertex")
    p1, p2 = f.image(d1), f.image(d2)
    if not p1 or p1 != p2:
        raise InternalInvariantError("fold needs equal nonempty images")
    adj12 = g.successor(d1) == d2
    adj21 = g.successor(d2) == d1
    if adj12 == adj21:
        raise InternalInvariantError(
            "fold needs directions adjacent through exactly one corner")
    w1, w2 = g.head(d1), g.head(d2)
    if w1 == w2:
        raise InternalInvariantError(
            "parallel fold: far endpoints already agree")
    w = min(w1, w2)
    rep = {w1: w, w2: w}
    fused = max(g.edges) + 1
    table = {d1: (fused,), d2: (fused,), -d1: (-fused,), -d2: (-fused,)}
    # the corner being sewn shut shows up in rho as (-first, second); rotate
    # rho so the pair sits at the front and drop it, every other occurrence
    # of the two edges becomes the fused edge
    first, second = (d1, d2) if adj12 else (d2, d1)
    i0 = g.rho.index(-first)
    rotated = g.rho[i0:] + g.rho[:i0]
    if rotated[1] != second:
        raise InternalInvariantError("rotation and boundary word disagree")
    edges = {e: (rep.get(t, t), rep.get(h, h))
             for e, (t, h) in g.edges.items() if e not in (abs(d1), abs(d2))}
    edges[fused] = (rep.get(v, v), w)
    vertex_image = _merge_vertices("fold", f, rep)
    return _rebuild("fold", f, edges, rotated[2:], lambda p: _subst(p, table),
                    (vertex_image, {**f.edge_image, fused: p1}))


def gates(f):
    """Partition directions by eventual collision under the direction map.

    Two directions at a vertex belong to one gate iff some iterate of the
    direction map sends them to the same direction; on ``n`` directions,
    ``n`` iterations decide this.  Returns direction -> gate (a frozenset of
    directions, one shared object per gate).
    """
    g = f.graph
    dirs = [d for e in sorted(g.edges) for d in (e, -e)]
    deriv = {d: f.derivative(d) for d in dirs}
    power = dict(deriv)
    for _ in range(len(dirs) - 1):
        power = {d: deriv[power[d]] for d in dirs}
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
    forests are collapsed.  Images stay tight: every move tightens what it
    builds.
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
        forest = next(
            (s for s in sinks if _contract(f.graph, s) is not None), None)
        if forest is not None:
            f = _collapse_edges(f, forest)
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


def _subdivide_towards(f, d, length, tracked, hook):
    """Subdivide ``|d|`` so the direction ``d`` keeps an image of ``length``.

    Returns the new map and the renames of every direction in ``tracked``
    (directions on other edges are unchanged).
    """
    e = abs(d)
    n = len(f.edge_image[e])
    k = length if d > 0 else n - length
    top = max(f.graph.edges)
    f = subdivide(f, e, k)
    hook("subdivide", f, edge=e, at=k, into=[top + 1, top + 2])
    rename = {e: top + 1, -e: -(top + 2)}
    return f, [rename.get(t, t) for t in tracked]


def _letter_to_split(f, c):
    """The direction whose edge to subdivide so that the letter ``c`` grows.

    Subdividing ``|c|`` turns every ``c`` into two letters, but needs an
    image of two or more letters; when that image is the single letter
    ``c'``, ``c'`` must grow first, and so on along the chain.
    """
    for _ in range(len(f.graph.edges)):
        if len(f.image(c)) > 1:
            return c
        (c,) = f.image(c)
    raise InternalInvariantError("one-letter edge images close up into a cycle")


def _fold_pass(f, o1, o2, x, hook):
    """Fold once at the merge point of the turn ``(o1, o2)``'s derivative orbit.

    Returns the new map, the renamed turn and ``x``, and the number of
    letters the pass cancels.  ``x`` is None while an edge image takes the
    turn; once a subdivision splits its last occurrence, x is the new vertex
    and the turn x's own, and no fold takes a segment ending at x.  A pair
    that fills a valence-two vertex has a degenerate turn: the pass merges
    the two edges through the vertex instead of folding.  Two edges with
    equal images never share their far endpoint too, since the loop they
    bound would map to a point; :func:`fold` checks this.
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
        # merging through v cancels their common image prefix.  It comes
        # before any other valence move, whose slides could undo that
        through = reverse_path(f.image(d1)) + f.image(d2)
        f = _merge_through(f, v)
        hook("valence_two", f)
        return f, None, None, None, len(through) - len(tighten(through))
    for _ in range(len(f.graph.edges) + 8):
        if x is None and not any(
                pair in ((-o1, o2), (-o2, o1))
                for p in f.edge_image.values() for pair in zip(p, p[1:])):
            # a subdivision split the turn's last occurrence; its new
            # vertex x is the turn's point
            x = max(z for z in f.graph.vertices if sorted(
                map(f.derivative, f.graph.directions(z))) == sorted((o1, o2)))
            o1, o2 = f.graph.directions(x)
        p1, p2 = f.image(d1), f.image(d2)
        if p1 == p2 and x not in (f.graph.head(d1), f.graph.head(d2)):
            break
        if p1 != p2:
            shared = _common_prefix_len(p1, p2)
        else:
            # the whole edges may not fold, since x must keep valence two.
            # Fold all but the last half letter, so that letter's edge is
            # subdivided first
            c = _letter_to_split(f, p1[-1])
            f, (d1, d2, o1, o2) = _subdivide_towards(
                f, c, 1, (d1, d2, o1, o2), hook)
            if c != p1[-1] or f.image(d1) != f.image(d2):
                # a step along a chain of one-letter images, or the pair's
                # own edge was subdivided: prepare afresh
                continue
            shared = len(p1)
            p1 = f.image(d1)
        if shared < 1:
            raise InternalInvariantError("fold pair lost its common prefix")
        f, (d1, d2, o1, o2) = _subdivide_towards(
            f, d1 if len(p1) > shared else d2, shared, (d1, d2, o1, o2), hook)
    else:
        raise InternalInvariantError("fold preparation did not settle")
    folded_ids = sorted((abs(d1), abs(d2)))
    # the fold replaces letters one for one and two images by one, so any
    # shortfall below this count is cancellation
    untightened = sum(map(len, f.edge_image.values())) - len(p1)
    f = fold(f, d1, d2)
    fused = max(f.graph.edges)
    hook("fold", f, edges=folded_ids, into=fused)
    cancelled = untightened - sum(map(len, f.edge_image.values()))
    rename = {d1: fused, d2: fused, -d1: -fused, -d2: -fused}
    return f, rename.get(o1, o1), rename.get(o2, o2), x, cancelled


def bestvina_handel(f, hook=None):
    """Run the train track algorithm on a boundary-preserving self-map.

    A round that cancels no letter raises :class:`InternalInvariantError`.
    By the descent argument in the module docstring no input should reach
    :data:`MAX_ROUNDS` rounds; :class:`IterationLimitExceeded` after that
    many stays as a safety net.

    ``hook(name, map, **details)`` is called after every individual move with
    the map *after* the move; pass one to trace or audit a run.
    """
    hook = hook or _noop_hook
    if not f.preserves_boundary():
        raise InternalInvariantError(
            "input map does not preserve the boundary word")
    new = pull_tight(f)
    if new is not f:
        f = new
        hook("pull_tight", f)
    for _ in range(MAX_ROUNDS):
        f, m, sinks = _simplify(f, hook)
        # permutation first: the identity matrix is also reducible, but a
        # permutation means a finite-order (growth one) class, not a reduction
        if is_permutation_matrix(m):
            return GrowthOne(f)
        if sinks:
            # the lowest sink is the witness; simplification has collapsed
            # every invariant forest, so it is essential
            if _contract(f.graph, sinks[0]) is not None:
                raise InternalInvariantError(
                    "invariant forest survived simplification")
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
