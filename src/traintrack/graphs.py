"""Embedded graphs and their self-maps, encoded through the boundary word.

An oriented edge is a nonzero integer: ``+e`` traverses edge ``e`` forwards,
``-e`` traverses it backwards, so reversal is negation.  An edge path is a
tuple of oriented edges.

A graph sitting as a spine inside a once-punctured orientable surface is
stored as its edge set together with the *boundary word* ``rho``: the closed
walk around the puncture, which crosses every edge exactly twice, once per
direction.  The cyclic order of directions around each vertex (the rotation
system) is not an input — it is derived from ``rho`` once, at construction:
if ``d`` is immediately followed by ``d'`` on the boundary walk, then ``d'``
is the rotation successor of the reversed direction ``-d`` at their common
vertex.
Conversely a graph with a rotation system has a well-defined boundary walk,
so ``rho`` carries exactly the embedding data and nothing more.
"""

from __future__ import annotations

from itertools import chain
from operator import neg

import numpy as np

from .errors import GraphStructureError, MapCompatibilityError


def reverse_path(path):
    """Reverse an edge path: negate every step and flip their order."""
    return tuple(map(neg, reversed(path)))


def tighten(path):
    """Reduce a path to its unique tight representative (rel endpoints).

    Backtracking pairs ``(d, -d)`` are cancelled with a stack scan, which
    resolves cascades of cancellations in a single pass.
    """
    return substitute(path, {})


def substitute(path, table):
    """Replace each letter ``d`` of a path by the path ``table[d]`` (letters
    the table lacks stay) and tighten, in one stack scan: the result is the
    tight form of the plain substitution, for any path and table."""
    out = []
    for d in path:
        rep = table.get(d)
        if rep is None:
            if out and out[-1] == -d:
                out.pop()
            else:
                out.append(d)
            continue
        for c in rep:
            if out and out[-1] == -c:
                out.pop()
            else:
                out.append(c)
    return tuple(out)


def _turns(path):
    """The turns a path takes: consecutive letters a, b take the turn
    ``(-a, b)``, the pair of directions leaving the vertex between them."""
    return zip(map(neg, path), path[1:])


def _trim_seam(p):
    """A tight closed path with the cancellations across its seam trimmed."""
    k = 0
    while 2 * k + 1 < len(p) and p[k] == -p[-1 - k]:
        k += 1
    return p[k:len(p) - k]


def _is_cyclic_rotation(p, q):
    """Whether two tuples agree up to a cyclic rotation."""
    if len(p) != len(q):
        return False
    if not p:
        return True
    dbl = q + q
    n = len(p)
    return any(dbl[i:i + n] == p for i in range(len(q)))


def _path_image(images, path):
    """The tight image of an edge path under a map with tight edge images
    ``images`` (edge id -> path): each letter's image is spliced on, read
    from the end for a reversed letter, cancelling only at the seam where
    two meet."""
    # a reversed step reads its stored image q from the end: it pushes
    # -q[-1], -q[-2], ..., and -q[-1 - k] cancels out[-1 - k].  Most seams
    # cancel nothing (at least two thirds of those spliced while composing
    # the benchmark's twist words), so such a seam costs one compare
    out = []
    for d in path:
        if d > 0:
            q = images[d]
            if out and q and out[-1] == -q[0]:
                k, n = 1, min(len(out), len(q))
                while k < n and out[-1 - k] == -q[k]:
                    k += 1
                del out[-k:]
                q = q[k:]
            out.extend(q)
        else:
            q = images[-d]
            if out and q and out[-1] == q[-1]:
                k, n = 1, min(len(out), len(q))
                while k < n and out[-1 - k] == q[-1 - k]:
                    k += 1
                del out[-k:]
                q = q[:-k]
            out.extend(map(neg, reversed(q)))
    return tuple(out)


class EmbeddedGraph:
    """A finite graph together with its embedding in a once-punctured surface.

    Parameters
    ----------
    edges:
        Mapping from positive integer edge ids to ``(tail, head)`` pairs of
        integer vertex ids.  Loops (``tail == head``) are allowed.
    rho:
        The boundary word: a closed walk, as a tuple of oriented edges,
        crossing every edge exactly twice, once per direction.

    Construction validates that ``rho`` really is such a walk and that the
    rotation it induces at each vertex is a single cycle; together these force
    the complement of the graph in the surface to be one disk containing the
    puncture.  The walk that checks a vertex's rotation is kept as its
    :meth:`rotation_order`.  The genus then comes out of the Euler count and
    must be a positive integer.  Instances are immutable; algorithm moves
    build new graphs rather than mutating.
    """

    __slots__ = ("edges", "rho", "_tail", "_succ", "_rotation")

    def __init__(self, edges, rho):
        # direction -> the vertex it leaves from; the head of d is tail[-d]
        self.edges, tail = {}, {}
        for e, (u, v) in dict(edges).items():
            if not isinstance(e, int) or isinstance(e, bool) or e <= 0:
                raise GraphStructureError(
                    f"edge ids must be positive integers, got {e!r}")
            for w in (u, v):
                if not isinstance(w, int) or isinstance(w, bool):
                    raise GraphStructureError(
                        f"vertex ids must be integers, got {w!r}")
            self.edges[e] = (u, v)
            tail[e], tail[-e] = u, v
        self._tail = tail
        self.rho = rho = tuple(rho)
        # as many letters as directions, and all of them: each exactly once
        if len(rho) != len(tail) or tail.keys() != set(rho):
            raise GraphStructureError(
                "boundary word must cross every oriented edge exactly once")
        # Rotation system: consecutive boundary steps (d, d') turn the corner
        # between the directions -d and d', so d' succeeds -d at that vertex.
        succ = {}
        for d, d2 in zip(rho, rho[1:] + rho[:1]):
            if tail[-d] != tail[d2]:
                raise GraphStructureError("boundary word is not a closed walk")
            succ[-d] = d2
        self._succ = succ
        # The first direction met at a vertex in sorted order is its
        # smallest, and the walk from it is the vertex's rotation; a
        # direction there off that walk lies on a second cycle.
        self._rotation, walked = {}, set()
        for d in sorted(succ):
            if d not in walked:
                v = tail[d]
                if v in self._rotation:
                    raise GraphStructureError(
                        f"rotation at vertex {v} splits into several cycles")
                self._rotation[v] = (d,) + self.arc(d, d)
                walked.update(self._rotation[v])
        # rho is one face and each rotation one cycle, so this is a closed
        # orientable surface with one face, and 1 - V + E = 2g is even
        if 1 - len(self._rotation) + len(self.edges) < 2:
            raise GraphStructureError(
                "boundary word does not give a once-punctured surface of "
                f"genus >= 1 (V={len(self._rotation)}, E={len(self.edges)})")

    def tail(self, d):
        """Vertex an oriented edge leaves from."""
        try:
            return self._tail[d]
        except KeyError:
            raise GraphStructureError(
                f"unknown edge in direction {d}") from None

    def head(self, d):
        """Vertex an oriented edge arrives at."""
        try:
            return self._tail[-d]
        except KeyError:
            raise GraphStructureError(
                f"unknown edge in direction {-d}") from None

    @property
    def vertices(self):
        """Sorted tuple of vertex ids (every vertex meets an edge)."""
        return tuple(sorted(self._rotation))

    @property
    def genus(self):
        """Genus of the once-punctured surface this graph is a spine of."""
        return (1 - len(self._rotation) + len(self.edges)) // 2

    def valence(self, v):
        return len(self.rotation_order(v))

    def successor(self, d):
        """The next direction after ``d`` in the rotation at its base vertex."""
        try:
            return self._succ[d]
        except KeyError:
            raise GraphStructureError(f"unknown direction {d}") from None

    def arc(self, a, b):
        """Directions strictly between ``a`` and ``b``, walking the rotation
        from ``a`` at their shared vertex; ``arc(a, a)`` is every direction
        there but ``a``."""
        if self.tail(a) != self.tail(b):
            raise GraphStructureError(
                f"directions {a} and {b} sit at different vertices")
        out = []
        d = self._succ[a]
        while d != b:
            out.append(d)
            d = self._succ[d]
        return tuple(out)

    def rotation_order(self, v):
        """Directions at ``v`` in rotation order, starting from the smallest:
        the successor walk that construction checked and kept."""
        try:
            return self._rotation[v]
        except KeyError:
            raise GraphStructureError(f"unknown vertex {v}") from None

    def __eq__(self, other):
        if not isinstance(other, EmbeddedGraph):
            return NotImplemented
        return self.edges == other.edges and self.rho == other.rho

    def __repr__(self):
        return (f"EmbeddedGraph(V={len(self._rotation)}, E={len(self.edges)}, "
                f"genus={self.genus})")


class GraphSelfMap:
    """A self-map of an embedded graph, combinatorially: vertices to vertices,
    edges to edge paths.

    ``edge_image[e]`` is the image path of the forward orientation; the
    reverse orientation maps to the reversed path.  Construction checks
    that images are tight paths with the right endpoints: no image may
    backtrack (take a step ``d`` and then ``-d``), so :func:`_path_image`,
    the one splice behind :func:`~.twist.compose_word`,
    :meth:`preserves_boundary` and the moves' path images, cancels letters
    only where two images meet.
    It deliberately does *not* require the boundary word to be preserved —
    see :meth:`preserves_boundary` — because maps that reverse the surface
    orientation are still useful self-maps of the graph.  Instances
    are immutable: moves build new maps, and nothing writes into a map's
    images after construction, so the transition matrix is computed once.
    """

    __slots__ = ("graph", "vertex_image", "edge_image", "_matrix")

    def __init__(self, graph, vertex_image, edge_image):
        self.graph = graph
        self.vertex_image = dict(vertex_image)
        self.edge_image = {e: tuple(p) for e, p in dict(edge_image).items()}
        self._matrix = None
        verts = graph._rotation.keys()
        if self.vertex_image.keys() != verts:
            raise MapCompatibilityError(
                "vertex_image must cover exactly the vertices")
        for v, w in self.vertex_image.items():
            if w not in verts:
                raise MapCompatibilityError(
                    f"vertex {v} maps to unknown vertex {w}")
        if self.edge_image.keys() != graph.edges.keys():
            raise MapCompatibilityError(
                "edge_image must cover exactly the edges")
        tail = graph._tail
        for e, p in self.edge_image.items():
            want_from = self.vertex_image[tail[e]]
            want_to = self.vertex_image[tail[-e]]
            if not p:
                if want_from != want_to:
                    raise MapCompatibilityError(
                        f"edge {e} has a trivial image but its endpoints "
                        "map to distinct vertices")
                continue
            # walk the image, carrying the vertex each step must leave from
            # and the step that would backtrack.  An unknown letter stops the
            # walk as a break does; the message names the image's first
            # unknown letter if it has one.  A backtrack is reported only
            # for a path with the right endpoints
            try:
                at, back, backtracks = tail[p[0]], 0, False
                for d in p:
                    if tail[d] != at:
                        raise KeyError(d)
                    if d == back:
                        backtracks = True
                    back = -d
                    at = tail[back]
            except KeyError:
                bad = [abs(d) for d in p if d not in tail]
                raise MapCompatibilityError(
                    f"image of edge {e} uses unknown edge {bad[0]}" if bad
                    else f"image of edge {e} is not a path") from None
            if tail[p[0]] != want_from or at != want_to:
                raise MapCompatibilityError(
                    f"image of edge {e} has the wrong endpoints")
            if backtracks:
                raise MapCompatibilityError(f"image of edge {e} backtracks")

    def image(self, d):
        """Image path of an oriented edge."""
        p = self.edge_image[abs(d)]
        return p if d > 0 else reverse_path(p)

    def derivative(self, d):
        """First step of the image of ``d`` (the direction map)."""
        p = self.edge_image[abs(d)]
        if not p:
            raise MapCompatibilityError(
                f"direction {d} has a trivial image, no derivative")
        return p[0] if d > 0 else -p[-1]

    def preserves_boundary(self):
        """Whether the map fixes the puncture loop up to free homotopy.

        True iff the cyclic reduction of the image of ``rho`` is a cyclic
        rotation of the cyclic reduction of ``rho`` itself.  Every map built
        from Dehn twists satisfies this, and every move of the train track
        algorithm keeps it; it doubles as a cheap integrity check between
        moves.

        The image of ``rho`` is spliced by :func:`_path_image`, which
        cancels only where two images meet, since each image is tight; that
        leaves it tight, so only its cyclic seam is trimmed.
        """
        return _is_cyclic_rotation(
            _trim_seam(_path_image(self.edge_image, self.graph.rho)),
            _trim_seam(tighten(self.graph.rho)))

    def transition_matrix(self):
        """Unsigned crossing counts, rows/columns in sorted edge-id order.

        Entry ``[i, j]`` counts how often the image of edge ``j`` crosses
        edge ``i``, in either direction.  It is computed once per map and
        returned as a copy, which the caller may write into.
        """
        if self._matrix is None:
            order = sorted(self.graph.edges)
            n = len(order)
            images = [self.edge_image[e] for e in order]
            lengths = [len(p) for p in images]
            letters = np.fromiter(chain.from_iterable(images), np.int64,
                                  sum(lengths))
            # one bin per entry, row-major: a letter d in column j's image
            # lands in bin i * n + j, where edge |d| is the i-th smallest
            start = np.zeros(order[-1] + 1, np.int64)
            start[order] = range(0, n * n, n)
            cells = start[np.abs(letters)]
            cells += np.repeat(np.arange(n), lengths)
            self._matrix = np.bincount(cells, minlength=n * n).reshape(n, n)
        return self._matrix.copy()

    def __repr__(self):
        total = sum(len(p) for p in self.edge_image.values())
        return f"GraphSelfMap({self.graph!r}, image size {total})"
