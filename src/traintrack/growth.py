"""Growth rates of nonnegative integer matrices.

The growth rate of a graph self-map is the Perron-Frobenius eigenvalue of its
transition matrix.  One reachability closure splits the matrix into strongly
connected blocks, and one eigen-solve per block finds the block's simple
Perron-Frobenius eigenvalue to rounding error (that of the whole matrix can
be defective).
"""

from __future__ import annotations

import numpy as np


def is_permutation_matrix(m) -> bool:
    """True iff ``m`` is square 0/1 with a single 1 per row and column."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        return False
    return bool(((m == 0) | (m == 1)).all()
                and (m.sum(axis=0) == 1).all()
                and (m.sum(axis=1) == 1).all())


def _reach(m):
    # r[j, i]: a path of arcs leads from j to i, with arc j -> i whenever
    # edge j's image crosses edge i (m[i, j] != 0).  Each squaring doubles
    # the path length covered, so ceil(log2 n) products suffice; stop early
    # once everything reaches everything, as in most rounds of the fold loop
    r = (np.asarray(m) != 0).T.astype(float)
    np.fill_diagonal(r, 1.0)
    for _ in range(max(len(r) - 2, 0).bit_length()):
        r = np.minimum(r @ r, 1.0)
        if r.all():
            break
    return r > 0


def _components(r, starts):
    # the strongly connected components (all that j reaches and that reach
    # j back) meeting the ascending ``starts``, each once, by smallest member
    done = np.zeros(len(r), dtype=bool)
    for j in starts:
        if not done[j]:
            members = np.flatnonzero(r[j] & r[:, j])
            done[members] = True
            yield members


def is_irreducible(m) -> bool:
    """Whether the crossing digraph of ``m`` is strongly connected.

    A 1x1 matrix counts as irreducible (a single component), zero or not.
    """
    return bool(_reach(m).all())


def sink_components(m):
    """Proper sink components of the crossing digraph of ``m``.

    An edge set closed under the arcs "image crosses" is an invariant
    subgraph, and the sink components are exactly the minimal ones.  Each
    comes back as a sorted list of indices, ordered by smallest index; the
    whole index set never counts, so the list is empty exactly when ``m`` is
    irreducible.
    """
    r = _reach(m)
    # j lies in a sink when everything it reaches reaches it back
    sinks = np.flatnonzero((r <= r.T).all(axis=1))
    return [c.tolist() for c in _components(r, sinks) if len(c) < len(r)]


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a nonnegative matrix.

    The maximum over the strongly connected blocks: a 1x1 block gives its
    entry, a permutation block exactly 1.0, any other block the largest
    eigenvalue modulus from one eigen-solve.  An irreducible matrix is its
    own single block, so it takes one eigen-solve of the whole matrix.  A
    zero matrix gives exactly 0.0.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spectral_radius needs a square matrix")
    if m.size == 0 or not m.any():
        return 0.0
    if (m < 0).any():
        raise ValueError("spectral_radius needs a nonnegative matrix")
    r = _reach(m)
    blocks = [m] if r.all() else (
        m[np.ix_(c, c)] for c in _components(r, range(len(m))))
    best = 0.0
    for block in blocks:
        if len(block) == 1 or is_permutation_matrix(block):
            radius = float(block.max())  # the entry, or exactly 1.0
        else:
            radius = float(np.abs(np.linalg.eigvals(block)).max())
        best = max(best, radius)
    return best
