"""Hyperbolic realization of a spine: triangulate, pack circles, draw.

Cutting the once-punctured surface open along its spine leaves a single
``2n``-gon (``n`` = number of edges) whose boundary spells the boundary word
and whose interior contains the puncture.  Coning the puncture to the polygon
corners triangulates the closed surface; a Thurston circle packing, solved
by Newton's method on the angle sums, makes the triangulation geodesic for
the surface's hyperbolic metric; developing the triangle fan around the
puncture then draws the whole picture inside the Poincare disk, ready for
SVG output.

NumPy is imported where it is first used, not when the package loads.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    GraphStructureError,
    InternalInvariantError,
    PackingDidNotConverge,
)

__all__ = [
    "ConeTriangulation",
    "PackingRadii",
    "DiskLayout",
    "cone_triangulation",
    "circle_pack",
    "develop",
    "emit_svg",
]

_TWO_PI = 2.0 * math.pi

# Newton steps allowed before circle_pack gives up
MAX_NEWTON_STEPS = 100


# ---------------------------------------------------------------------------
# cone triangulation


@dataclass(frozen=True)
class ConeTriangulation:
    """The cut-open polygon, coned to the puncture.

    ``sides[i]`` is the oriented edge labelling the polygon side from corner
    ``i`` to corner ``i + 1``; read in order the sides spell the boundary
    word.  ``corner_vertex[i]`` is the graph vertex each corner descends to in
    the quotient.  Triangle ``i`` has the apex (the puncture) and corners
    ``i`` and ``i + 1``.
    """

    graph: object
    sides: tuple
    corner_vertex: tuple

    def side_partner(self, i):
        """Index of the side carrying the reversed oriented edge."""
        return self.sides.index(-self.sides[i])


def cone_triangulation(graph):
    """Triangulate the closed surface by coning the puncture.

    The polygon has one side per boundary-word letter and one corner between
    consecutive letters; connecting an interior apex to every corner gives
    ``2n`` triangles.  The quotient Euler count is ``(1 + V) - 3n + 2n =
    2 - 2g``, the closed surface with one marked point.
    """
    sides = graph.rho
    corner_vertex = tuple(graph.tail(d) for d in sides)
    return ConeTriangulation(graph, sides, corner_vertex)


# ---------------------------------------------------------------------------
# circle packing


@dataclass(frozen=True)
class PackingRadii:
    """Hyperbolic circle radii: one for the apex, one per graph vertex."""

    apex: float
    vertex: dict


def _corner_angles(radii):
    """Corner angles of triangles of tangent circles, with their derivatives.

    ``radii`` has one row of three radii per triangle.  Side ``s`` of a
    triangle lies opposite corner ``s`` and has length ``l_s`` equal to the
    sum of the other two radii.  Returns ``theta`` with ``theta[t, i]`` the
    angle at corner ``i`` (hyperbolic law of cosines) and ``d_radius`` with
    ``d_radius[t, i, p]`` its derivative with respect to the radius at corner
    ``p``.  The closed form is ``dtheta_i/dl_i = sinh l_i / (sinh l_j sinh
    l_k sin theta_i)`` and ``dtheta_i/dl_j = -(dtheta_i/dl_i) cos theta_k``;
    radius ``p`` lies on every side but side ``p``.
    """
    import numpy as np
    side = radii.sum(axis=1, keepdims=True) - radii
    ch = np.cosh(side)
    sh = np.sinh(side)
    nxt, far = [1, 2, 0], [2, 0, 1]
    cos = (ch[:, nxt] * ch[:, far] - ch) / (sh[:, nxt] * sh[:, far])
    theta = np.arccos(np.clip(cos, -1.0, 1.0))
    own = sh / (sh[:, nxt] * sh[:, far] * np.sin(theta))
    d_side = np.empty(radii.shape + (3,))
    for i, j, k in zip(range(3), nxt, far):
        d_side[:, i, i] = own[:, i]
        d_side[:, i, j] = -own[:, i] * cos[:, k]
        d_side[:, i, k] = -own[:, i] * cos[:, j]
    return theta, d_side.sum(axis=2, keepdims=True) - d_side


def circle_pack(tri):
    """Radii making every angle sum ``2*pi``, by a damped Newton method.

    The unknowns are the apex radius and one radius per graph vertex; the
    residual is each angle sum minus ``2*pi``.  In log radii the angle sums
    are the gradient of a strictly convex function (Colin de Verdiere,
    Invent. Math. 104, 1991; Bobenko-Springborn, Trans. AMS 356, 2004), so
    for genus at least two the packing exists, is unique, and Newton's
    method converges quadratically near it.  Starting from all radii 1/2,
    each step halves the Newton step until every radius stays positive and
    the largest residual falls.  Once that residual is below ``1e-10`` the
    solve takes one more full Newton step, which from so close leaves the
    radii exact to rounding, and stops.  The system of the apex and ``V``
    vertices is ``(V+1) x (V+1)``, assembled from the ``2n`` cone triangles
    in one pass per step.

    The genus and angle-deficit checks run on every call.  The solve itself
    is kept per process for the last 256 corner sequences, each vertex id
    replaced by its rank among ``graph.vertices``.  That rank is the
    numbering of the unknowns, and the solve reads nothing else, so a memo
    hit returns radii bit-identical to a cold solve.  Each call returns a
    fresh :class:`PackingRadii` keyed by the caller's vertex ids, and a
    solve that raises :class:`PackingDidNotConverge` is not kept.
    """
    graph = tri.graph
    if graph.genus < 2:
        raise GraphStructureError(
            "hyperbolic circle packing needs a surface of genus >= 2, "
            f"got genus {graph.genus}")
    # the polygon corners that descend to v are v's directions
    for v in graph.vertices:
        if graph.valence(v) < 3:
            raise GraphStructureError(
                f"vertex {v} has angle deficit: fewer than three polygon "
                "corners descend to it")
    # unknown 0 is the apex, unknown k + 1 is the k-th graph vertex
    unknown = {v: k + 1 for k, v in enumerate(graph.vertices)}
    r = _solve_packing(tuple(unknown[v] for v in tri.corner_vertex))
    return PackingRadii(r[0], {v: r[k] for v, k in unknown.items()})


@lru_cache(maxsize=256)
def _solve_packing(c):
    """The radii of the apex and of unknowns ``1..max(c)``, as a tuple, for
    the corner sequence ``c`` of unknowns; every unknown has a corner."""
    import numpy as np
    tris = np.array([(0, c[i], c[(i + 1) % len(c)]) for i in range(len(c))])
    n = max(c) + 1
    entry = (tris[:, :, None] * n + tris[:, None, :]).ravel()

    def residual_and_jacobian(r):
        theta, d_radius = _corner_angles(r[tris])
        residual = np.bincount(tris.ravel(), theta.ravel(), n) - _TWO_PI
        jac = np.bincount(entry, d_radius.ravel(), n * n).reshape(n, n)
        return residual, jac

    r = np.full(n, 0.5)
    residual, jac = residual_and_jacobian(r)
    worst = np.abs(residual).max()
    for _ in range(MAX_NEWTON_STEPS):
        step = np.linalg.solve(jac, residual)
        if worst < 1e-10:
            return tuple((r - step).tolist())
        for _ in range(60):  # by then the step is below rounding
            trial = r - step
            if trial.min() > 0.0:
                trial_residual, trial_jac = residual_and_jacobian(trial)
                if np.abs(trial_residual).max() < worst:
                    break
            step *= 0.5
        else:
            raise PackingDidNotConverge(
                f"angle sums still off by {worst:.3e}: the line search found "
                "no lower residual in 60 halvings")
        r, residual, jac = trial, trial_residual, trial_jac
        worst = np.abs(residual).max()
    raise PackingDidNotConverge(
        f"angle sums still off by {worst:.3e} after {MAX_NEWTON_STEPS} "
        "Newton steps")


# ---------------------------------------------------------------------------
# development into the disk


@dataclass(frozen=True)
class DiskLayout:
    """Coordinates of the developed fan in the Poincare disk.

    The apex sits at the origin; ``corners[i]`` is the Euclidean coordinate
    pair of polygon corner ``i``; ``geodesics[i]`` describes the side from
    corner ``i`` to corner ``i + 1`` as either ``("line",)`` or
    ``("arc", cx, cy, r, sweep)`` for the circular arc orthogonal to the unit
    circle.
    """

    sides: tuple
    corner_vertex: tuple
    corners: tuple
    geodesics: tuple
    side_lengths: tuple
    closure_defect: float
    pair_defect: float


def _hyp_dist(p, q):
    dd = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
    den = (1.0 - p[0] ** 2 - p[1] ** 2) * (1.0 - q[0] ** 2 - q[1] ** 2)
    return math.acosh(1.0 + 2.0 * dd / den)


def _geodesic(p, q):
    """Geodesic from ``p`` to ``q``: diameter segment or orthogonal arc."""
    det = p[0] * q[1] - p[1] * q[0]
    if abs(det) < 1e-12:
        return ("line",)
    np2 = 1.0 + p[0] ** 2 + p[1] ** 2
    nq2 = 1.0 + q[0] ** 2 + q[1] ** 2
    cx = (np2 * q[1] - nq2 * p[1]) / (2.0 * det)
    cy = (nq2 * p[0] - np2 * q[0]) / (2.0 * det)
    r = math.sqrt(max(cx * cx + cy * cy - 1.0, 0.0))
    a1 = math.atan2(p[1] - cy, p[0] - cx)
    a2 = math.atan2(q[1] - cy, q[0] - cx)
    turn = math.remainder(a2 - a1, _TWO_PI)
    return ("arc", cx, cy, r, 1 if turn > 0 else 0)


def develop(tri, radii):
    """Lay the triangle fan out around the apex at the disk origin.

    Corner ``i`` goes at hyperbolic distance ``r_apex + r_vertex`` from the
    origin, at the accumulated apex angle of the preceding triangles; the
    packing's apex condition makes the fan close up again.

    The fan reads only the apex and corner radii, so the last 256 fans are
    kept per process, as :func:`circle_pack` keeps its solve: a hit is
    bit-identical to a cold development, and a fan that fails to close is
    not kept.  The side-pairing check reads ``tri.sides`` and runs on every
    call, which returns a fresh :class:`DiskLayout`.  A one-shot CLI run
    develops once and gains nothing.
    """
    corners = tri.corner_vertex
    points, lengths, geodesics, closure = _develop_fan(
        radii.apex, tuple(radii.vertex[v] for v in corners))
    pair_defect = 0.0
    for i in range(len(corners)):
        j = tri.side_partner(i)
        pair_defect = max(pair_defect, abs(lengths[i] - lengths[j]))
    if pair_defect > 1e-6:
        raise InternalInvariantError(
            f"identified sides developed to unequal lengths ({pair_defect:.3e})")
    return DiskLayout(tri.sides, corners, points, geodesics, lengths,
                      closure, pair_defect)


@lru_cache(maxsize=256)
def _develop_fan(apex, r):
    """The corner points, side lengths, side geodesics and closure defect
    of the fan with apex radius ``apex`` and corner radii ``r``."""
    import numpy as np
    m = len(r)
    fan = np.array([(apex, r[i], r[(i + 1) % m]) for i in range(m)])
    apex_angles = _corner_angles(fan)[0][:, 0].tolist()
    closure = abs(sum(apex_angles) - _TWO_PI)
    if closure > 1e-8:
        raise PackingDidNotConverge(
            f"developed fan misses closing up by {closure:.3e}")
    points = []
    theta = 0.0
    for i in range(m):
        rho = math.tanh(0.5 * (apex + r[i]))
        points.append((rho * math.cos(theta), rho * math.sin(theta)))
        theta += apex_angles[i]
    lengths = tuple(
        _hyp_dist(points[i], points[(i + 1) % m]) for i in range(m))
    geodesics = tuple(
        _geodesic(points[i], points[(i + 1) % m]) for i in range(m))
    return tuple(points), lengths, geodesics, closure


# ---------------------------------------------------------------------------
# SVG emission


def _fmt(x):
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _path(p, q, geo):
    if geo[0] == "line":
        return (f"M {_fmt(p[0])} {_fmt(p[1])} L {_fmt(q[0])} {_fmt(q[1])}")
    _, _, _, r, sweep = geo
    return (f"M {_fmt(p[0])} {_fmt(p[1])} A {_fmt(r)} {_fmt(r)} 0 0 {sweep} "
            f"{_fmt(q[0])} {_fmt(q[1])}")

_STYLE = """\
<style>
.disk-boundary{fill:none;stroke:#202020;stroke-width:0.008}
.polygon-side{fill:none;stroke:#1f3d7a;stroke-width:0.012;stroke-linecap:round}
.edge-label{font-size:0.08px;font-family:monospace;fill:#1f3d7a;text-anchor:middle}
.inf-polygon{fill:#b5b5cf;fill-opacity:0.85;stroke:#41415e;stroke-width:0.005}
.inf-label{font-size:0.07px;font-family:monospace;fill:#30303c;text-anchor:middle}
.puncture{fill:#000000}
</style>"""


def emit_svg(layout, structure=()):
    """Deterministic SVG of the developed polygon and train track data.

    Draws the unit-circle boundary, every polygon side as a geodesic with its
    edge label (each label appears twice, once per side of the identified
    pair), one shaded schematic ``k``-gon per infinitesimal polygon near its
    vertex, and the puncture at the origin.  Identical inputs yield identical
    bytes.  A polygon at a vertex that is no corner of the layout raises
    :class:`ValueError`.

    The side paths and label positions read only ``layout.corners`` and
    ``layout.geodesics`` and are kept per process for the last 256 such
    pairs; the labels ``e<edge>`` and the polygons are written on every
    call.  A one-shot CLI run draws once and gains nothing.
    """
    paths, spots = _outline(layout.corners, layout.geodesics)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="600" height="600" viewBox="-1.05 -1.05 2.1 2.1">',
        _STYLE,
        '<circle class="disk-boundary" cx="0" cy="0" r="1"/>',
        *paths,
    ]
    out.extend(f'<text class="edge-label" {spot}>e{abs(side)}</text>'
               for side, spot in zip(layout.sides, spots))
    polys = tuple(structure or ())
    seen_at = {}
    for label, poly in enumerate(polys):
        if poly.vertex not in layout.corner_vertex:
            raise ValueError(
                f"polygon vertex {poly.vertex} is not a corner of the layout")
        spot = layout.corner_vertex.index(poly.vertex)
        nth = seen_at.get(poly.vertex, 0)
        seen_at[poly.vertex] = nth + 1
        scale = 0.80 - 0.12 * nth
        cx = scale * layout.corners[spot][0]
        cy = scale * layout.corners[spot][1]
        phi0 = math.atan2(cy, cx)
        pts = " ".join(
            f"{_fmt(cx + 0.055 * math.cos(phi0 + _TWO_PI * j / poly.k))},"
            f"{_fmt(cy + 0.055 * math.sin(phi0 + _TWO_PI * j / poly.k))}"
            for j in range(poly.k))
        out.append(f'<polygon class="inf-polygon" points="{pts}"/>')
        out.append(f'<text class="inf-label" x="{_fmt(cx)}" y="{_fmt(cy)}">'
                   f'{label}</text>')
    out.append('<circle class="puncture" cx="0" cy="0" r="0.015"/>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


@lru_cache(maxsize=256)
def _outline(corners, geodesics):
    """The ``<path>`` line of each polygon side and the ``x``, ``y``
    attributes of its edge label, just outside the side's chord midpoint."""
    m = len(corners)
    paths = []
    spots = []
    for i in range(m):
        p = corners[i]
        q = corners[(i + 1) % m]
        paths.append(f'<path class="polygon-side" '
                     f'd="{_path(p, q, geodesics[i])}"/>')
        mx = 0.5 * (p[0] + q[0])
        my = 0.5 * (p[1] + q[1])
        norm = math.hypot(mx, my)
        if norm > 1e-9:
            mx += 0.085 * mx / norm
            my += 0.085 * my / norm
        spots.append(f'x="{_fmt(mx)}" y="{_fmt(my)}"')
    return tuple(paths), tuple(spots)
