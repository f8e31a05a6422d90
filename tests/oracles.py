"""Independent re-computations used to cross-check the library.

Everything here is deliberately written from first principles (exact
rational arithmetic, direct combinatorial traces) rather than by calling
back into the code under test, so agreement is meaningful evidence:

* characteristic-polynomial / Sturm-sequence spectral radius (exact
  bisection, no floating point until the final answer);
* ribbon-graph face tracing (Euler characteristic / genus without using
  the stored boundary word);
* action on first homology of a rose, with the symplectic form of the
  once-punctured surface, and Casson-Bleiler's certificate that a class is
  pseudo-Anosov from that action's characteristic polynomial (irreducible
  modulo a small prime, not cyclotomic, not a polynomial in t^k);
* raw (untightened) edge-path substitution, for immersion checks, the
  identity map and composites of maps, the period of a map on all short
  cyclically reduced circuits, the short non-peripheral circuits a map
  fixes up to rotation and reversal, and the growth rate of one loop under
  iteration (λ from the input map alone);
* BH92's valence-two homotopy as a plain letter table, for either of the
  two edges it may collapse;
* gates by plain iteration of the direction map, and the illegal turns
  edge images take through them;
* direct cusp count of the puncture region along the boundary word;
* geometric intersection of curve words (linked pairs) and Penner's
  construction: faces, prongs and dilatation of T_A T_B^-1;
* hyperbolic law of cosines for tangent-circle corner angles, and circle
  packing radii solved in high precision with mpmath (test-only).
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from traintrack.graphs import GraphSelfMap


# ---------------------------------------------------------------------------
# Exact polynomials (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------

def char_poly(matrix) -> list[Fraction]:
    """Monic characteristic polynomial via the Faddeev-LeVerrier recurrence.

    The recurrence runs in integers: the coefficients of an integer
    matrix's polynomial are integers, so each division by k is exact."""
    m = [[int(x) for x in row] for row in np.asarray(matrix)]
    n = len(m)
    coeffs = [1]                    # c_0 = 1 (monic), then c_1 ... c_n
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = [[sum(x * y for x, y in zip(row, col)) for col in zip(*mk)]
              for row in m]
        ck, rest = divmod(-sum(mk[i][i] for i in range(n)), k)
        assert rest == 0
        coeffs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    # p(x) = x^n + c_1 x^(n-1) + ... + c_n ; return lowest-first
    return [Fraction(c) for c in reversed(coeffs)]


def poly_val(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p):
    return [c * k for k, c in enumerate(p)][1:] or [Fraction(0)]


def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def poly_divmod(a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    if b == [Fraction(0)]:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = a[:]
    while len(r) >= len(b) and _poly_trim(r) != [Fraction(0)]:
        shift = len(r) - len(b)
        factor = r[-1] / b[-1]
        if factor == 0:
            r = r[:-1]
            continue
        q[shift] = factor
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        r = r[:-1]
        if not r:
            r = [Fraction(0)]
    return _poly_trim(q), _poly_trim(r)


def poly_gcd(a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while _poly_trim(b) != [Fraction(0)]:
        _, r = poly_divmod(a, b)
        a, b = b, r
    lead = a[-1]
    return [c / lead for c in a] if lead != 0 else a


def square_free_part(p):
    g = poly_gcd(p, poly_derivative(p))
    q, r = poly_divmod(p, g)
    assert _poly_trim(r) == [Fraction(0)]
    return q


def sturm_chain(q):
    chain = [_poly_trim(list(q)), _poly_trim(poly_derivative(q))]
    while _poly_trim(chain[-1]) != [Fraction(0)]:
        _, r = poly_divmod(chain[-2], chain[-1])
        chain.append([-c for c in _poly_trim(r)])
    return chain[:-1]


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = poly_val(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def roots_in(chain, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def largest_real_root(matrix, eps: Fraction = Fraction(1, 10**12)) -> float:
    """Largest real eigenvalue of a nonnegative integer matrix, by exact
    bisection on the square-free characteristic polynomial using Sturm
    counts.  For a nonnegative matrix this equals the spectral radius."""
    m = np.asarray(matrix)
    if (m < 0).any():
        raise ValueError("oracle expects a nonnegative matrix")
    p = char_poly(m)
    q = square_free_part(p)
    chain = sturm_chain(q)
    bound = Fraction(int(m.sum(axis=1).max()) + 1)
    lo, hi = -bound, bound
    if roots_in(chain, lo, hi) < 1:
        raise ValueError("matrix has no real eigenvalue (not nonnegative?)")
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if poly_val(q, mid) == 0:
            if roots_in(chain, mid, hi) == 0:
                return float(mid)
            lo = mid
            continue
        if roots_in(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


# ---------------------------------------------------------------------------
# Ribbon-graph combinatorics
# ---------------------------------------------------------------------------

def face_count(graph) -> int:
    """Number of complementary faces, traced from the rotation system only."""
    darts = set()
    for e in graph.edges:
        darts.add(e)
        darts.add(-e)
    faces = 0
    seen = set()
    for start in sorted(darts):
        if start in seen:
            continue
        faces += 1
        d = start
        while d not in seen:
            seen.add(d)
            d = graph.successor(-d)
    return faces


def genus_via_euler(graph) -> int:
    v = len(graph.vertices)
    e = len(graph.edges)
    f = face_count(graph)
    chi = v - e + f
    assert (2 - chi) % 2 == 0
    return (2 - chi) // 2


# ---------------------------------------------------------------------------
# Homology action of a rose self-map
# ---------------------------------------------------------------------------

def abelianization(f) -> np.ndarray:
    """Signed edge-count matrix of a self-map of a one-vertex graph.
    Row i gives the image of edge ids[i] in the basis of all edges."""
    graph = f.graph
    if len(graph.vertices) != 1:
        raise ValueError("abelianization oracle needs a one-vertex graph")
    ids = sorted(graph.edges)
    index = {e: i for i, e in enumerate(ids)}
    n = len(ids)
    a = np.zeros((n, n), dtype=object)
    for i, e in enumerate(ids):
        for d in f.image(e):
            a[i][index[abs(d)]] += 1 if d > 0 else -1
    return a.astype(int)


def symplectic_form(genus: int) -> np.ndarray:
    """Intersection form in the basis (x0, y0, x1, y1, ...) of the standard
    rose: each handle contributes a 2x2 block [[0, 1], [-1, 0]]."""
    j = np.zeros((2 * genus, 2 * genus), dtype=int)
    for i in range(genus):
        j[2 * i][2 * i + 1] = 1
        j[2 * i + 1][2 * i] = -1
    return j


def is_symplectic(a: np.ndarray, j: np.ndarray) -> bool:
    return np.array_equal(a @ j @ a.T, j)


def h1_spectral_radius(f) -> float:
    """Largest eigenvalue modulus of the (signed) homology action."""
    return float(np.abs(np.linalg.eigvals(abelianization(f).astype(float))).max())


# the primes that irreducible_mod tries; irreducible modulo one of them
# certifies 700 of the 703 irreducible polynomials that sympy found on the
# length-<= 4 census and the benchmark corpora
PRIMES_BELOW_60 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                   53, 59)


def _reduce(a, p):
    """``a`` with coefficients modulo p, lowest degree first, trimmed."""
    a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _rem_mod(a, b, p):
    """``a`` modulo ``b`` over F_p; ``b`` is reduced, and not zero."""
    a, inv = _reduce(a, p), pow(b[-1], -1, p)
    while len(a) >= len(b):
        c, shift = a[-1] * inv, len(a) - len(b)
        for i, x in enumerate(b):
            a[shift + i] -= c * x
        a = _reduce(a, p)
    return a


def _mul_mod(a, b, f, p):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _rem_mod(out, f, p)


def irreducible_mod(poly, p) -> bool:
    """Whether the monic integer polynomial ``poly`` (lowest degree first)
    is irreducible over F_p, by Ben-Or's test: it has no factor of degree
    i <= n/2, that is gcd(poly, x^(p^i) - x) = 1 for each such i.  Monic
    and irreducible modulo p implies irreducible over Q."""
    f = _reduce(poly, p)
    power = [0, 1]
    for _ in range((len(f) - 1) // 2):
        # power = x^(p^i) mod f, by square and multiply
        base, power, e = power, [1], p
        while e:
            if e & 1:
                power = _mul_mod(power, base, f, p)
            base, e = _mul_mod(base, base, f, p), e >> 1
        diff = power + [0] * (2 - len(power))
        diff[1] -= 1
        a, b = f, _reduce(diff, p)
        while b:
            a, b = b, _rem_mod(a, b, p)
        if len(a) > 1:
            return False
    return True


def homology_certificate(f) -> bool:
    """Casson-Bleiler's homological criterion on a rose self-map ``f``: the
    characteristic polynomial of its action on H_1 (``abelianization``) is
    irreducible modulo some prime below 60, so over Q, has no root of
    unity as a root and is not a polynomial in t^k for any k > 1.  Then
    ``f``'s class is pseudo-Anosov.  The test is sufficient only, and
    reads neither a train track nor ``bh``."""
    return certifies(tuple(int(c) for c in char_poly(abelianization(f))))


@functools.lru_cache(maxsize=None)
def certifies(poly) -> bool:
    """``homology_certificate``'s test of a monic integer polynomial, a
    tuple lowest degree first; kept per polynomial, since the words of a
    census share few."""
    n = len(poly) - 1
    if math.gcd(*(k for k, c in enumerate(poly) if c)) > 1:
        return False
    if not any(irreducible_mod(poly, p) for p in PRIMES_BELOW_60):
        return False
    # irreducible, so a root of unity is a root exactly when poly is a
    # cyclotomic Phi_m with phi(m) = n, which divides t^m - 1; and phi(m)
    # >= sqrt(m / 2) bounds m by 2 n^2.  power runs over t^m mod poly
    power = [1]
    for _ in range(2 * n * n):
        power = [0] + power
        if len(power) > n:
            top = power.pop()
            power = [c - top * q for c, q in zip(power, poly)]
        while len(power) > 1 and not power[-1]:
            power.pop()
        if power == [1]:
            return False
    return True

# ---------------------------------------------------------------------------
# Path substitution without tightening
# ---------------------------------------------------------------------------

def raw_apply(f, path) -> tuple:
    """Concatenate the letter images without any cancellation."""
    out = []
    for d in path:
        out.extend(f.image(d))
    return tuple(out)


def has_cancellation(path) -> bool:
    return any(a == -b for a, b in zip(path, path[1:]))


def free_reduce(path) -> tuple:
    """Cancel backtracks ``(d, -d)`` by a stack scan."""
    out = []
    for d in path:
        if out and out[-1] == -d:
            out.pop()
        else:
            out.append(d)
    return tuple(out)


def identity(graph):
    """The identity self-map of ``graph``."""
    return GraphSelfMap(graph, {v: v for v in graph.vertices},
                        {e: (e,) for e in graph.edges})


def compose(g, f):
    """The composite ``g ∘ f`` (f first) on f's graph: each image of f
    spelled through g letter by letter and freely reduced."""
    return GraphSelfMap(
        f.graph, {v: g.vertex_image[w] for v, w in f.vertex_image.items()},
        {e: free_reduce(raw_apply(g, p)) for e, p in f.edge_image.items()})


def valence_two_side(f, v, collapse):
    """``f`` with the valence-two vertex ``v`` removed by collapsing one edge.

    With rotation ``(a, b)`` at v the path (-a, b) becomes a fresh edge m,
    one more than the largest id, from x = head(a) to y = head(b).
    ``collapse`` names the edge that shrinks to a point: ``"b"`` moves v to
    y and spells a as -m, ``"a"`` moves v to x and spells b as m.  Every
    image is spelled letter by letter and freely reduced, the vertices that
    mapped to v map where v went, and the boundary word, spelled from -a
    on, starts with m.  Returns ``(edges, rho, vertex_image, images)``.
    """
    g = f.graph
    a, b = g.rotation_order(v)
    x, y = g.head(a), g.head(b)
    m = max(g.edges) + 1
    if collapse == "b":
        table, to = {b: (), -b: (), a: (-m,), -a: (m,)}, y
    else:
        table, to = {a: (), -a: (), b: (m,), -b: (-m,)}, x

    def spell(path):
        return tuple(c for d in path for c in table.get(d, (d,)))

    edges = {e: uv for e, uv in g.edges.items() if e not in (abs(a), abs(b))}
    edges[m] = (x, y)
    images = {e: free_reduce(spell(f.image(e))) for e in edges if e != m}
    images[m] = free_reduce(spell(f.image(-a) + f.image(b)))
    i = g.rho.index(-a)
    vertex_image = {z: to if w == v else w
                    for z, w in f.vertex_image.items() if z != v}
    return edges, spell(g.rho[i:] + g.rho[:i]), vertex_image, images


# ---------------------------------------------------------------------------
# Gates and illegal turns
# ---------------------------------------------------------------------------

def gates_by_iteration(f) -> dict:
    """Direction -> gate, by applying the direction map ``2E`` times.

    Each step reads the first letter of a direction's image, so every image
    must be nonempty.  After ``2E`` steps on the ``2E`` directions every
    direction sits on a cycle, where the map is a bijection, so two
    directions at one vertex share a gate exactly when they land together.
    """
    dirs = [d for e in f.graph.edges for d in (e, -e)]
    land = {d: d for d in dirs}
    for _ in dirs:
        land = {d: f.image(x)[0] for d, x in land.items()}
    groups = {}
    for d in dirs:
        groups.setdefault((f.graph.tail(d), land[d]), set()).add(d)
    return {d: frozenset(group) for group in groups.values() for d in group}


def illegal_turns(f) -> list:
    """The turns (-a, b) of consecutive image letters a, b that lie inside
    one gate of :func:`gates_by_iteration`; none on a train track map."""
    gate_of = gates_by_iteration(f)
    return [(-a, b) for p in f.edge_image.values() for a, b in zip(p, p[1:])
            if gate_of[-a] == gate_of[b]]


# ---------------------------------------------------------------------------
# Periods of conjugacy classes
# ---------------------------------------------------------------------------

def _cyclic_reduce(path) -> tuple:
    """Free reduction by a stack scan, then cancellation across the seam."""
    out = free_reduce(path)
    i, j = 0, len(out)
    while j - i >= 2 and out[i] == -out[j - 1]:
        i, j = i + 1, j - 1
    return tuple(out[i:j])


def curve_growth(f, loop=(1, 2), letters: int = 200_000) -> float:
    """Growth rate of the conjugacy class of ``loop`` under ``f``.

    Iterates ``f`` on the loop as a cyclic word, substituting letter images
    and reducing cyclically, until it has ``letters`` letters (or after 2000
    steps, so that a class that does not grow ends too).  Under a
    pseudo-Anosov class every non-peripheral class grows like λⁿ, so the
    ratio of the last two lengths tends to λ; it is returned as it is,
    since some classes' ratios oscillate and an extrapolation from the
    last few amplifies that.  Uses no train track, gate or matrix."""
    word = _cyclic_reduce(tuple(loop))
    lengths = [len(word)]
    while len(lengths) < 2 or (lengths[-1] < letters and len(lengths) <= 2000):
        word = _cyclic_reduce(raw_apply(f, word))
        lengths.append(len(word))
    return lengths[-1] / lengths[-2]


def cyclic_circuits(graph, max_len: int) -> list:
    """Every cyclically reduced closed edge path of 1..max_len letters, read
    off the edge table; each rotation of a circuit is listed on its own."""
    dirs = [d for e in sorted(graph.edges) for d in (e, -e)]
    tail = {d: graph.edges[abs(d)][0 if d > 0 else 1] for d in dirs}
    found = []

    def grow(path):
        last = path[-1]
        if tail[-last] == tail[path[0]] and path[0] != -last:
            found.append(tuple(path))
        if len(path) < max_len:
            for d in dirs:
                if tail[d] == tail[-last] and d != -last:
                    grow(path + [d])

    for d in dirs:
        grow([d])
    return found


def _rotations(path) -> set:
    return {path[i:] + path[:i] for i in range(len(path))}


def circuit_period(f, max_len: int, max_period: int):
    """Least p <= max_period after which f^p carries every cyclically
    reduced circuit of at most ``max_len`` letters to a rotation of itself,
    or None.  Each step substitutes the letter images and reduces the
    result cyclically, so a finite-order class shows its order."""
    start = cyclic_circuits(f.graph, max_len)
    current = start
    for p in range(1, max_period + 1):
        current = [_cyclic_reduce(raw_apply(f, c)) for c in current]
        if all(len(c) == len(s) and c in _rotations(s)
               for c, s in zip(current, start)):
            return p
    return None


def _reversed(path) -> tuple:
    return tuple(-d for d in reversed(path))


def fixed_circuits(f, max_len: int, max_period: int) -> list:
    """Cyclically reduced circuits c of at most ``max_len`` letters, other
    than rotations of rho and its reverse, such that for some
    p <= max_period f^p carries c to a rotation of c or of its reverse
    (each rotation of such a circuit is listed on its own).  A
    pseudo-Anosov class fixes no periodic non-peripheral curve, so a train
    track map with such a circuit represents a reducible class."""
    rho = tuple(f.graph.rho)
    peripheral = _rotations(rho) | _rotations(_reversed(rho))
    found = []
    for c in cyclic_circuits(f.graph, max_len):
        if c in peripheral:
            continue
        targets = _rotations(c) | _rotations(_reversed(c))
        image = c
        for _ in range(max_period):
            image = _cyclic_reduce(raw_apply(f, image))
            if image in targets:
                found.append(c)
                break
    return found


# ---------------------------------------------------------------------------
# Direct puncture-region cusp count
# ---------------------------------------------------------------------------

def puncture_index_direct(f, gate_of, inf_edges) -> Fraction:
    """Index of the puncture singularity, counted along the boundary word.

    The complementary region of the track at the puncture is bounded by
    the boundary word rho.  At the corner between consecutive boundary
    letters d, d' the region is smooth exactly when the two gates reached
    (the gate of -d and the gate of d') are distinct and connected by an
    infinitesimal edge; every other corner is a cusp (prong).  A region
    with k cusps has index 1 - k/2.
    """
    rho = f.graph.rho
    cusps = 0
    for i, d in enumerate(rho):
        nxt = rho[(i + 1) % len(rho)]
        g_in, g_out = gate_of[-d], gate_of[nxt]
        pair = frozenset((g_in, g_out))
        if not (len(pair) == 2 and pair in inf_edges):
            cusps += 1
    return Fraction(1) - Fraction(cusps, 2)


# ---------------------------------------------------------------------------
# Hyperbolic trigonometry
# ---------------------------------------------------------------------------

def corner_angle(r_at: float, r_b: float, r_c: float) -> float:
    """Angle at the first circle of a triangle of pairwise tangent
    hyperbolic circles with the given radii (law of cosines)."""
    b = r_at + r_b
    c = r_at + r_c
    a = r_b + r_c
    num = math.cosh(b) * math.cosh(c) - math.cosh(a)
    den = math.sinh(b) * math.sinh(c)
    return math.acos(max(-1.0, min(1.0, num / den)))


def disk_distance(p: complex, q: complex) -> float:
    """Hyperbolic distance between two points of the unit disk."""
    num = 2 * abs(p - q) ** 2
    den = (1 - abs(p) ** 2) * (1 - abs(q) ** 2)
    return math.acosh(1 + num / den)


def exact_packing(tri, dps: int = 50):
    """Circle packing radii of a coned polygon, to ``dps`` digits.

    Reads only ``tri.corner_vertex`` and ``tri.graph.vertices`` and solves
    the packing equations from scratch: triangle ``i`` joins the apex to
    corners ``i`` and ``i + 1``, and the angles at the apex, and at each graph
    vertex, sum to 2*pi.  The unknowns are log radii, so every radius stays
    positive, and ``mpmath.findroot`` (damped multidimensional Newton,
    numerical Jacobian) starts from all radii 1/2.  Returns
    ``(apex, {vertex: radius})`` as mpmath numbers.
    """
    import mpmath

    corners = tri.corner_vertex
    m = len(corners)
    vertices = list(tri.graph.vertices)
    with mpmath.workdps(dps):
        def angle(r_at, r_b, r_c):
            b, c, a = r_at + r_b, r_at + r_c, r_b + r_c
            return mpmath.acos(
                (mpmath.cosh(b) * mpmath.cosh(c) - mpmath.cosh(a))
                / (mpmath.sinh(b) * mpmath.sinh(c)))

        def defects(*logs):
            apex = mpmath.exp(logs[0])
            r = {v: mpmath.exp(x) for v, x in zip(vertices, logs[1:])}
            at_apex = 0
            at_vertex = {v: 0 for v in vertices}
            for i in range(m):
                u, w = corners[i], corners[(i + 1) % m]
                at_apex += angle(apex, r[u], r[w])
                at_vertex[u] += angle(r[u], apex, r[w])
                at_vertex[w] += angle(r[w], r[u], apex)
            return [at_apex - 2 * mpmath.pi] + [
                at_vertex[v] - 2 * mpmath.pi for v in vertices]

        start = [mpmath.log(0.5)] * (len(vertices) + 1)
        logs = mpmath.findroot(defects, start, tol=mpmath.mpf(10) ** -dps,
                               maxsteps=100)
        return (+mpmath.exp(logs[0]),
                {v: +mpmath.exp(x) for v, x in zip(vertices, logs[1:])})


# ---------------------------------------------------------------------------
# Penner's construction from curve words
# ---------------------------------------------------------------------------

def commutator_word(genus: int) -> tuple:
    """Boundary word x0 y0 x0~ y0~ x1 y1 ... of the genus-g rose with edges
    x_i = 2i+1, y_i = 2i+2, written down from the convention."""
    rho = []
    for i in range(genus):
        x, y = 2 * i + 1, 2 * i + 2
        rho.extend((x, y, -x, -y))
    return tuple(rho)


def homology_class(path, genus: int) -> np.ndarray:
    """Signed edge count of a curve word in the basis (x0, y0, x1, ...)."""
    v = np.zeros(2 * genus, dtype=int)
    for d in path:
        v[abs(d) - 1] += 1 if d > 0 else -1
    return v


def geometric_intersection(u, v, rho) -> int:
    """Minimal intersection number of two distinct primitive curves, given
    as cyclically reduced words on a one-vertex spine with boundary word
    ``rho`` (the linked pairs of Cohen and Lustig).

    A passage of a curve through the vertex enters from ``-u[i-1]`` (the
    direction back along the arriving edge) and leaves along ``u[i]``.  Two
    passages with four distinct directions cross when their ends alternate
    in the rotation.  Along a maximal common path the curves cross when
    they leave it on the other sides from those they entered on; running
    the same count against ``v`` reversed finds paths shared in opposite
    directions.
    """
    # the face traced by rho turns from -rho[i] to rho[i+1]
    succ = {-d: rho[(i + 1) % len(rho)] for i, d in enumerate(rho)}
    order = [rho[0]]
    while len(order) < len(succ):
        order.append(succ[order[-1]])
    pos = {d: k for k, d in enumerate(order)}
    n = len(order)

    def before(start, a, b):
        """Is ``a`` met before ``b`` going around from ``start``?"""
        return (pos[a] - pos[start]) % n < (pos[b] - pos[start]) % n

    count = 0
    for i in range(len(u)):
        for j in range(len(v)):
            a_in, a_out, b_in, b_out = -u[i - 1], u[i], -v[j - 1], v[j]
            if len({a_in, a_out, b_in, b_out}) == 4:
                count += (before(a_in, b_in, a_out)
                          != before(a_in, b_out, a_out))
    for w in (tuple(v), tuple(-d for d in reversed(v))):
        for i in range(len(u)):
            for j in range(len(w)):
                if u[i] != w[j] or u[i - 1] == w[j - 1]:
                    continue        # not the start of a maximal common path
                k = 1
                while (k < len(u) * len(w)
                       and u[(i + k) % len(u)] == w[(j + k) % len(w)]):
                    k += 1
                if k == len(u) * len(w):
                    continue        # parallel curves never part
                left_in = before(u[i], -u[i - 1], -w[j - 1])
                left_out = before(-u[(i + k - 1) % len(u)],
                                  w[(j + k) % len(w)], u[(i + k) % len(u)])
                count += left_in != left_out
    return count


def chain_faces(n: int) -> list[int]:
    """Side counts of the boundary components of a regular neighbourhood
    of a chain of ``n`` curves (consecutive curves meet once, others are
    disjoint), traced as a ribbon graph on the crossings.

    Crossing ``k`` joins curves ``k`` and ``k+1``, oriented so that every
    crossing has the rotation (k out, k+1 out, k in, k+1 in).
    """
    def crossings(m):
        return [k for k in (m - 1, m) if 0 <= k < n - 1]

    def other_end(h):
        k, m, out = h
        xs = crossings(m)
        step = 1 if out else -1
        return (xs[(xs.index(k) + step) % len(xs)], m, not out)

    def turn(h):
        k, m, out = h
        slots = [(k, k, True), (k, k + 1, True), (k, k, False),
                 (k, k + 1, False)]
        return slots[(slots.index(h) + 1) % 4]

    halves = [(k, m, out) for k in range(n - 1) for m in (k, k + 1)
              for out in (True, False)]
    seen = set()
    faces = []
    for start in halves:
        if start in seen:
            continue
        sides, h = 0, start
        while h not in seen:
            seen.add(h)
            sides += 1
            h = turn(other_end(h))
        faces.append(sides)
    return faces


def penner_data(genus: int, curves, word):
    """Singularity data and dilatation of a Penner product, derived from
    the curve words and the intersection form alone.

    ``curves`` maps generator names to edge words on the standard rose and
    ``word`` is a twist word of ``(name, sign)`` pairs using each curve
    once; the positive letters form the multicurve A, the negative ones B.
    Penner (Trans. AMS 310, 1988) makes T_A T_B^-1 pseudo-Anosov when A and
    B fill.  Checked here: the letters of each sign are pairwise disjoint,
    every geometric intersection equals |omega|, the intersection graph is
    a chain with single crossings, a cyclic rotation of the word sorts into
    its two blocks by swapping only disjoint twists, and every region of
    the complement of A u B is a disc.

    The union has V crossings and E = 2V arcs, so F = (2 - 2g) - V + E
    faces; a face with 2k sides carries a k-prong singularity of index
    1 - k/2.  The growth is Thurston's and Penner's
    lambda + 1/lambda = mu^2 + 2, mu^2 the top eigenvalue of N N^T, N the
    A-by-B intersection matrix.
    """
    word = tuple(word)
    names = [name for name, _ in word]
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("each curve must occur once in the word")
    rho = commutator_word(genus)
    j = symplectic_form(genus)
    cls = {x: homology_class(curves[x], genus) for x in names}
    geo = {}
    for p, a in enumerate(names):
        for b in names[p + 1:]:
            i_ab = geometric_intersection(curves[a], curves[b], rho)
            if i_ab != abs(int(cls[a] @ j @ cls[b])):
                raise ValueError(f"{a}, {b}: geometric != algebraic")
            geo[a, b] = geo[b, a] = i_ab
    sign = dict(word)
    if any(geo[a, b] for a in names for b in names
           if a != b and sign[a] == sign[b]):
        raise ValueError("letters of one sign must be disjoint")
    links = {(a, b) for (a, b), i_ab in geo.items() if i_ab}
    if any(geo[ab] != 1 for ab in links):
        raise ValueError("curves must meet at most once")
    # connected, n - 1 links, no curve meeting more than two others: a chain
    reached = {names[0]}
    for _ in names:
        reached |= {b for a, b in links if a in reached}
    if (len(reached) != n or len(links) != 2 * (n - 1)
            or any(sum(a == x for a, _ in links) > 2 for x in names)):
        raise ValueError("intersection graph must be a chain")
    if not any(all(not geo[a, b]
                   for p, (a, sa) in enumerate(w) for b, sb in w[p + 1:]
                   if sa > sb)
               for w in (word[r:] + word[:r] for r in range(n))):
        raise ValueError("word is not conjugate to T_A T_B^-1")

    v_count = len(links) // 2
    e_count = 2 * v_count
    f_count = (2 - 2 * genus) - v_count + e_count
    faces = chain_faces(n)
    if len(faces) != f_count:
        raise ValueError("A u B does not fill: some region is not a disc")
    if f_count != 1:
        raise ValueError("the face holding the puncture is not determined")
    sides = faces[0]
    prongs = sides // 2

    a_names = [x for x in names if sign[x] > 0]
    b_names = [x for x in names if sign[x] < 0]
    big_n = np.array([[geo[a, b] for b in b_names] for a in a_names],
                     dtype=float)
    mu2 = float(np.linalg.eigvalsh(big_n @ big_n.T).max())
    trace = mu2 + 2
    return {
        "V": v_count, "E": e_count, "F": f_count,
        "sides": sides, "prongs": prongs,
        "puncture_index": Fraction(1) - Fraction(prongs, 2),
        "growth": (trace + math.sqrt(trace * trace - 4)) / 2,
    }


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------

def maps_equal(f, g) -> bool:
    return (f.graph.edges == g.graph.edges
            and f.graph.rho == g.graph.rho
            and dict(f.vertex_image) == dict(g.vertex_image)
            and {e: f.image(e) for e in f.graph.edges}
                == {e: g.image(e) for e in g.graph.edges})
