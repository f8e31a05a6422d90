"""Growth rates of nonnegative integer matrices.

The growth rate of a graph self-map is the Perron-Frobenius eigenvalue of its
transition matrix.  One reachability closure splits the matrix into strongly
connected blocks, and one eigen-solve per block finds the block's simple
Perron-Frobenius eigenvalue to rounding error (that of the whole matrix can
be defective).

NumPy is imported where it is first used, not when the package loads.
:func:`is_permutation_matrix` and :func:`sink_components` decide rows of
Python numbers, reading an array with ``.tolist()``; :func:`is_irreducible`
decides rows too, and an array by a closure of NumPy products, which is
faster there.  The train track loop, which reads a map of few letters as
rows, loads NumPy for it only to compute a growth rate or, for the
valence-two comparison, a Perron-Frobenius vector (``_perron_vector``);
a comparison that integer counts decide loads none.
"""

from __future__ import annotations

from itertools import compress


def is_permutation_matrix(m) -> bool:
    """True iff ``m`` is 0/1 with a single 1 per row and column (so square).

    Decided on rows; an array is read with ``.tolist()``.
    """
    if hasattr(m, "tolist"):
        m = m.tolist()
    # n rows of n entries, each one 1 and n - 1 zeros, the 1s in n distinct
    # columns
    n = len(m) if isinstance(m, (list, tuple)) else 0
    return n > 0 and all(
        isinstance(row, (list, tuple)) and len(row) == n
        and row.count(1) == 1 and row.count(0) == n - 1 for row in m
    ) and len({row.index(1) for row in m}) == n


def _reach(m):
    # r[j, i]: a path of arcs leads from j to i, with arc j -> i whenever
    # edge j's image crosses edge i (m[i, j] != 0).  Each squaring doubles
    # the path length covered, so ceil(log2 n) products suffice; stop early
    # once everything reaches everything, as in most rounds of the fold loop
    import numpy as np
    r = (np.asarray(m) != 0).T.astype(float)
    np.fill_diagonal(r, 1.0)
    for _ in range(max(len(r) - 2, 0).bit_length()):
        r = np.minimum(r @ r, 1.0)
        if r.all():
            break
    return r > 0


def _components(r):
    # the strongly connected components (all that j reaches and that reach
    # j back), each once, by smallest member
    import numpy as np
    done = np.zeros(len(r), dtype=bool)
    for j in range(len(r)):
        if not done[j]:
            members = np.flatnonzero(r[j] & r[:, j])
            done[members] = True
            yield members


def _row_reach(m):
    # bit i of reach[j]: a path of arcs leads from j to i, as in _reach,
    # with bit j always set; rows of Python numbers, one closure of bitsets
    n = len(m)
    reach = [1 << j for j in range(n)]
    for i, row in enumerate(m):
        for j in compress(range(n), row):
            reach[j] |= 1 << i
    # Warshall's closure: once k is done, j reaches all it reaches along
    # paths whose inner indices are at most k
    for k in range(n):
        bit, via = 1 << k, reach[k]
        reach = [r | via if r & bit else r for r in reach]
    return reach


def is_irreducible(m) -> bool:
    """Whether the crossing digraph of ``m`` is strongly connected.

    A 1x1 matrix counts as irreducible (a single component), zero or not.
    A list or tuple of rows is decided without NumPy.
    """
    if isinstance(m, (list, tuple)):
        return _row_reach(m).count((1 << len(m)) - 1) == len(m)
    return bool(_reach(m).all())


def sink_components(m):
    """Proper sink components of the crossing digraph of ``m``.

    An edge set closed under the arcs "image crosses" is an invariant
    subgraph, and the sink components are exactly the minimal ones.  Each
    comes back as a sorted list of indices, ordered by smallest index; the
    whole index set never counts, so the list is empty exactly when ``m`` is
    irreducible.  Decided on rows; an array is read with ``.tolist()``.
    """
    if hasattr(m, "tolist"):
        m = m.tolist()
    reach, n = _row_reach(m), len(m)
    # j lies in a sink when all it reaches reaches it back, that is when as
    # many indices share j's reach set r as r holds; the sink is r, met
    # once, at its smallest index
    return [[i for i in range(n) if r >> i & 1]
            for j, r in enumerate(reach)
            if r & -r == 1 << j and reach.count(r) == r.bit_count() < n]


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a nonnegative matrix.

    The maximum over the strongly connected blocks: a 1x1 block gives its
    entry, a permutation block exactly 1.0, any other block the largest
    eigenvalue modulus from one eigen-solve.  An irreducible matrix is its
    own single block, so it takes one eigen-solve of the whole matrix.  A
    zero matrix gives exactly 0.0, from its zero 1x1 blocks.
    """
    import numpy as np
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spectral_radius needs a square matrix")
    if m.size == 0:
        return 0.0
    if (m < 0).any():
        raise ValueError("spectral_radius needs a nonnegative matrix")
    r = _reach(m)
    blocks = [m] if r.all() else (
        m[np.ix_(c, c)] for c in _components(r))
    best = 0.0
    for block in blocks:
        if len(block) == 1 or is_permutation_matrix(block):
            radius = float(block.max())  # the entry, or exactly 1.0
        else:
            radius = float(np.abs(np.linalg.eigvals(block)).max())
        best = max(best, radius)
    return best


def _perron_vector(m):
    # the real eigenvector of m's eigenvalue of largest real part, which for
    # a nonnegative m is its spectral radius, scaled so that its entry of
    # largest modulus is 1.0, as a list of floats for either form of m
    import numpy as np
    values, vectors = np.linalg.eig(np.asarray(m, dtype=float))
    v = vectors[:, values.real.argmax()].real
    return (v / v[np.abs(v).argmax()]).tolist()
