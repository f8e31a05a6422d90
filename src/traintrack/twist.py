"""Dehn twists as graph self-maps on a standard one-vertex spine.

A curve is a plain tuple of directions, read as a cyclic word.  A twist
about a simple closed curve ``c`` drags everything that crosses the annulus
around ``c`` once around the curve.  Combinatorially, on a spine that
carries ``c`` as an embedded cycle: every direction landing in the *twisting
sector* at a curve visit gets the curve word appended to its image.  Which of
the two sectors at a visit is the twisting one, and with which orientation the
curve word is inserted, are global handedness conventions, fixed once in
:func:`_twist_sectors` and :func:`dehn_twist` and applied uniformly to every
curve and every sign.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CurveNotRealizable, GraphStructureError, InternalInvariantError
from .graphs import EmbeddedGraph, GraphSelfMap, _path_image, reverse_path, tighten


def standard_rose(genus):
    """The one-vertex spine of the once-punctured genus-``g`` surface.

    Edges come in handle pairs ``x_i = 2i+1``, ``y_i = 2i+2`` for
    ``i < genus``, all loops at vertex 0, and the boundary word is the product
    of commutators ``x_i y_i x_i^-1 y_i^-1``.
    """
    if genus < 1:
        raise GraphStructureError("genus must be at least 1")
    edges = {e: (0, 0) for e in range(1, 2 * genus + 1)}
    rho = []
    for i in range(genus):
        x, y = 2 * i + 1, 2 * i + 2
        rho.extend((x, y, -x, -y))
    return EmbeddedGraph(edges, rho)


def _twist_sectors(graph, curve):
    """The germ -> visit-index assignment for the twisting sectors.

    ``curve`` is a tuple of directions read as a cyclic word, and this is
    the one place that checks it.  The curve makes one visit per pass
    through a vertex, ``(vertex, rev_in, out)``: the direction pointing back
    along the arrival edge and the direction of departure.  Both are *chord
    germs*, slots in the vertex rotation taken by the curve itself.

    Raises :class:`CurveNotRealizable`, checking in this order, for an empty
    word, a letter naming no edge, a word that is not a closed walk, a germ
    serving two visits, and a chord germ inside a visit's sector.  A word
    that backtracks (``d`` then ``-d``) or repeats a direction puts one germ
    into two visits, so that check rejects both.  The sector walk rejects
    both ways two strands can fail to be disjoint arcs at a vertex: nesting,
    and crossing, since when two chords with distinct germs interleave,
    exactly one germ of the second lies strictly inside the first's sector.
    Once these checks pass the sectors are disjoint: a sector holds no chord
    germ, so it is the whole gap in the rotation after its visit's
    ``rev_in``, and the visits' ``rev_in`` germs are distinct.
    """
    if not curve:
        raise CurveNotRealizable("a curve needs at least one edge")
    for d in curve:
        if abs(d) not in graph.edges:
            raise CurveNotRealizable(f"curve uses unknown edge {abs(d)}")
    if any(graph.head(curve[i - 1]) != graph.tail(out)
           for i, out in enumerate(curve)):
        raise CurveNotRealizable("curve word is not a closed walk")
    visits = [(graph.tail(out), -curve[i - 1], out)
              for i, out in enumerate(curve)]
    chord_germs = [d for _v, rev_in, out in visits for d in (rev_in, out)]
    if len(set(chord_germs)) != len(chord_germs):
        raise CurveNotRealizable("two curve strands share a direction")
    chord_set = set(chord_germs)
    sector_of = {}
    for i, (v, rev_in, out) in enumerate(visits):
        # handedness: the twisting sector walks the rotation from the
        # reversed incoming direction to the outgoing one, and a positive
        # twist inserts the curve word forwards; calibrated once so that
        # composites of the standard generators reproduce known growth rates
        # (the regression tests pin generator words and growth rates)
        for d in graph.arc(rev_in, out):
            if d in chord_set:
                raise CurveNotRealizable(
                    "curve strands cross or nest inside a twisting sector "
                    f"at vertex {v}")
            sector_of[d] = i
    return sector_of


def dehn_twist(graph, curve, sign=1):
    """The twist about ``curve`` as a self-map of ``graph``.

    ``curve`` is any sequence of directions, read as a cyclic word; a word
    that is not a simple closed curve on ``graph`` raises
    :class:`CurveNotRealizable`.  ``sign`` +1 or -1 picks the twist or its
    inverse.  Every direction in a twisting sector drags its edge once
    around the curve: the edge arriving through a sector germ has a rotated
    copy of the curve word appended to its image.  Vertices stay put.

    The images are tight as built: a curve that shares no germ is
    cyclically reduced, and a seam could cancel only if ``e`` or ``-e``
    were a chord germ, which no sector holds.
    """
    if sign not in (1, -1):
        raise ValueError(f"twist sign must be +1 or -1, got {sign!r}")
    p = tuple(curve)
    suffix = {}
    for germ, i in _twist_sectors(graph, p).items():
        gamma = p[i:] + p[:i]
        suffix[germ] = gamma if sign > 0 else reverse_path(gamma)
    # an edge arrives at its tail through germ +e and at its head through -e
    images = {e: reverse_path(suffix.get(e, ())) + (e,) + suffix.get(-e, ())
              for e in graph.edges}
    f = GraphSelfMap(graph, {v: v for v in graph.vertices}, images)
    if not f.preserves_boundary():
        raise InternalInvariantError(
            f"twist about {list(p)} does not preserve the boundary word")
    return f


def standard_generators(genus):
    """Name -> curve word (a tuple of directions) for the standard twist
    generators at this genus, for example ``c0: (1, 3)`` at genus 2.

    ``a_i`` and ``d_i`` are the two loops of handle ``i``.  The ``c_i`` are
    chain curves crossing several handles; together with the a's and d's they
    fill the surface, and twists about curves of the system pairwise satisfy
    braid or commutation relations.  The exact words are pinned by regression
    tests on known growth rates:

    * genus 2: ``c0 = x0 x1`` and the short chain ``c1 = y0~ x1``;
    * genus >= 3: ``c_i = y_i~ x_{i+1} x_{i+2}`` (indices mod genus) for
      ``i < genus - 1``, closed up by the short chain
      ``c_{genus-1} = y0~ x1``.

    At genus 1 only ``a0`` and ``d0`` exist (no chain curve fits on one
    handle); their twists generate the mapping class group of the
    once-punctured torus, SL(2, Z).
    """
    if genus < 1:
        raise GraphStructureError("genus must be at least 1")
    curves = {}
    for i in range(genus):
        curves[f"a{i}"] = (2 * i + 1,)
        curves[f"d{i}"] = (2 * i + 2,)
    if genus == 2:
        curves["c0"] = (1, 3)
        curves["c1"] = (-2, 3)
    elif genus >= 3:
        for i in range(genus - 1):
            curves[f"c{i}"] = (-(2 * i + 2),
                               2 * ((i + 1) % genus) + 1,
                               2 * ((i + 2) % genus) + 1)
        curves[f"c{genus - 1}"] = (-2, 3)
    return curves


# typed keys, so that a genus of 2.0 fails as it would uncached instead of
# finding genus 2's entry
@lru_cache(maxsize=None, typed=True)
def _rose_and_curves(genus):
    return standard_rose(genus), standard_generators(genus)


@lru_cache(maxsize=None, typed=True)
def _generator_factor(genus, name, sign):
    """A generator twist ``T`` factored as ``T = i_u o R``: conjugation by
    the loop ``u`` after the remainder ``R(e) = tight(u~ T(e) u)``.

    Returns ``(u, moved)``, with ``moved`` the ``(e, R(e))`` pairs of the
    edges that ``R`` moves.  ``u`` is ``()`` or the part of some image
    ``T(e)`` before its letter ``e``, whichever leaves ``R`` the fewest
    letters to move: on the standard generators at genus >= 2 every
    ``a_i`` gives ``u = (-+x_i)`` and a remainder that moves one edge.
    Checked once, through the splice kernel that composes with it, that
    ``u R(e) u~`` reduces to ``T(e)`` on every edge.
    """
    graph, curves = _rose_and_curves(genus)
    images = dehn_twist(graph, curves[name], sign).edge_image
    # the first of the fewest moved letters, so u = () wins a tie
    u, rest = min(
        ((u, {e: tighten(reverse_path(u) + p + u) for e, p in images.items()})
         for u in [()] + [p[:p.index(e)] for e, p in images.items()
                          if e in p]),
        key=lambda c: sum(len(p) for e, p in c[1].items() if p != (e,)))
    moved = tuple((e, p) for e, p in rest.items() if p != (e,))
    # the conjugator as the image of the extra key w, as compose_word has it
    w = len(graph.edges) + 1
    rest[w] = u
    if any(_path_image(rest, (w, e, -w)) != p for e, p in images.items()):
        raise InternalInvariantError(
            f"conjugating the remainder of {name} (sign {sign}) by "
            f"{list(u)} does not give its twist")
    return u, moved


def compose_word(genus, word):
    """The composite twist map of a word in the standard generators.

    ``word`` is a sequence of ``(name, sign)`` pairs, leftmost letter
    outermost: the rightmost twist acts first.  An empty word gives the
    identity map of the rose.  Genus must be at least 1.  Every name is
    looked up before anything is composed, so an unknown one fails at once.

    Each generator's twist map is built by :func:`dehn_twist`, with its
    boundary check, once per genus and process, and factored there as
    ``T = i_u o R`` (:func:`_generator_factor`), with the factor checked
    once.  The word's map is carried as ``i_w o B``: conjugation by a loop
    ``w`` after a map ``B``.  A letter sets ``w <- w B(u)`` and
    ``B <- B o R``, splicing only the edges that ``R`` moves, since
    ``B o i_u = i_B(u) o B``; so an ``a_i`` twist re-splices one edge, not
    ``2g - 1``.  The images returned are ``w B(e) w~``.  The map returned
    is always freshly composed.

    Every splice goes through :func:`~traintrack.graphs._path_image`, with
    ``w`` stored as the image of one extra key, and only the word's map is
    validated, which checks it exactly as strongly as validating each step.
    The rose has one vertex, so path and endpoint checks hold for any word;
    every letter comes from a twist that :func:`dehn_twist` validated and a
    factor checked against it; and a splice cancels only inverse pairs, so
    by the uniqueness of reduced words a map that passes the tightness
    check is exactly the step-by-step chain's, while a splice that left a
    backtrack fails it.  The map then still meets
    :func:`~traintrack.bh.bestvina_handel`'s input check.
    """
    graph, curves = _rose_and_curves(genus)
    factors = []
    for name, sign in word:
        if name not in curves:
            known = ", ".join(sorted(curves))
            raise ValueError(
                f"unknown generator {name!r} at genus {genus} "
                f"(have: {known})")
        factors.append(_generator_factor(genus, name, sign))
    # i_w o B is one dict: B's images, and w as the image of key w
    w = len(graph.edges) + 1
    images = {e: (e,) for e in graph.edges}
    images[w] = ()
    for u, moved in factors:
        spliced = [(e, _path_image(images, p)) for e, p in moved]
        if u:
            images[w] = _path_image(images, (w,) + u)
        images.update(spliced)
    return GraphSelfMap(graph, {v: v for v in graph.vertices},
                        {e: _path_image(images, (w, e, -w))
                         for e in graph.edges})
