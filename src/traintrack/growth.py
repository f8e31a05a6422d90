"""Growth rates of nonnegative integer matrices.

The growth rate of a graph self-map is the Perron-Frobenius eigenvalue of its
transition matrix.  Power iteration is enough, with two wrinkles: reducible
matrices are split into strongly connected blocks first (otherwise defective
eigenvalues slow the iteration to a crawl), and each block is shifted by the
identity before iterating so that periodic blocks cannot oscillate.
"""

from __future__ import annotations

import numpy as np

from .errors import IterationLimitExceeded


def is_permutation_matrix(m) -> bool:
    """True iff ``m`` is square 0/1 with a single 1 per row and column."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        return False
    return bool(((m == 0) | (m == 1)).all()
                and (m.sum(axis=0) == 1).all()
                and (m.sum(axis=1) == 1).all())


def _sccs(adj):
    """Strongly connected components of a digraph (iterative Tarjan).

    ``adj[v]`` lists the out-neighbours of ``v``.  Components come back as
    lists of vertex indices, sinks of the condensation first.
    """
    n = len(adj)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if index[w] is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    pushed = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if pushed:
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _crossing_digraph(m):
    # arc j -> i whenever edge j's image crosses edge i; an edge set closed
    # under out-arcs is exactly an invariant subgraph
    n = m.shape[0]
    return [np.nonzero(m[:, j])[0].tolist() for j in range(n)]


def is_irreducible(m) -> bool:
    """Whether the crossing digraph of ``m`` is strongly connected.

    A 1x1 matrix counts as irreducible (a single component), zero or not.
    """
    m = np.asarray(m)
    if m.shape[0] <= 1:
        return True
    return len(_sccs(_crossing_digraph(m))) == 1


def sink_components(m):
    """Proper sink components of the crossing digraph of ``m``.

    An edge set closed under the arcs "image crosses" is an invariant
    subgraph, and the sink components are exactly the minimal ones.  Each
    comes back as a sorted list of indices, ordered by smallest index; the
    whole index set never counts, so the list is empty exactly when ``m`` is
    irreducible.
    """
    adj = _crossing_digraph(np.asarray(m))
    sinks = []
    for comp in _sccs(adj):
        members = set(comp)
        if len(members) < len(adj) and all(
                w in members for j in comp for w in adj[j]):
            sinks.append(sorted(comp))
    return sorted(sinks)


def _block_radius(block, tol, max_iterations):
    # power iteration on (B + I): the shifted block is primitive, so the
    # Rayleigh quotient converges; subtract the shift at the end
    b = block + np.eye(block.shape[0])
    v = np.full(block.shape[0], 1.0 / np.sqrt(block.shape[0]))
    prev = None
    settled = 0
    for _ in range(max_iterations):
        w = b @ v
        est = float(v @ w)
        v = w / np.linalg.norm(w)
        if prev is not None and abs(est - prev) < tol:
            settled += 1
            if settled >= 3:
                return est - 1.0
        else:
            settled = 0
        prev = est
    raise IterationLimitExceeded(
        f"power iteration did not settle within {max_iterations} steps")


def spectral_radius(m, tol: float = 1e-9, max_iterations: int = 10 ** 6) -> float:
    """Largest eigenvalue modulus of a nonnegative matrix.

    The matrix splits into strongly connected blocks; each block's
    Perron-Frobenius eigenvalue is found by shifted power iteration (stopping
    once three successive Rayleigh quotients agree within ``tol``), and the
    maximum over blocks is returned.  A zero matrix gives exactly 0.0 and a
    permutation matrix exactly 1.0; blocks whose row and column sums are all
    one are permutation blocks and short-circuit the iteration.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spectral_radius needs a square matrix")
    if m.size == 0 or not m.any():
        return 0.0
    if (m < 0).any():
        raise ValueError("spectral_radius needs a nonnegative matrix")
    best = 0.0
    for comp in _sccs(_crossing_digraph(m)):
        idx = np.array(sorted(comp))
        block = m[np.ix_(idx, idx)]
        if len(idx) == 1:
            best = max(best, float(block[0, 0]))
            continue
        if ((block.sum(axis=0) == 1).all() and (block.sum(axis=1) == 1).all()
                and block.max() == 1.0):
            best = max(best, 1.0)
            continue
        best = max(best, _block_radius(block, tol, max_iterations))
    return best
