"""Spectral radius and matrix predicates against an exact oracle."""
from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from traintrack import is_irreducible, is_permutation_matrix, spectral_radius
from traintrack.growth import sink_components

import oracles

GOLDEN = (1 + 5 ** 0.5) / 2


def test_permutation_matrices_give_exactly_one():
    eye = np.eye(4, dtype=int)
    cycle = np.roll(eye, 1, axis=0)
    for m in (eye, cycle):
        assert spectral_radius(m) == 1.0


def test_simple_values():
    assert spectral_radius(np.array([[2]])) == pytest.approx(2.0, abs=1e-9)
    assert spectral_radius(np.array([[0, 1], [1, 1]])) == pytest.approx(
        GOLDEN, abs=1e-9)
    # defective reducible: two growth-1 blocks coupled by an off-diagonal 1
    assert spectral_radius(np.array([[1, 1], [0, 1]])) == pytest.approx(
        1.0, abs=1e-9)
    with pytest.raises(ValueError,
                       match="^spectral_radius needs a square matrix$"):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(ValueError,
                       match="^spectral_radius needs a nonnegative matrix$"):
        spectral_radius(np.array([[0, -1], [1, 0]]))


def test_zero_matrix():
    assert spectral_radius(np.zeros((3, 3), dtype=int)) == pytest.approx(
        0.0, abs=1e-9)


def test_periodic_block_plus_growth_block():
    # block diag(permutation 3-cycle, Fibonacci): radius is the golden ratio
    m = np.zeros((5, 5), dtype=int)
    m[0, 1] = m[1, 2] = m[2, 0] = 1
    m[3:, 3:] = [[0, 1], [1, 1]]
    assert spectral_radius(m) == pytest.approx(GOLDEN, abs=1e-9)


def test_matches_exact_oracle_on_random_matrices():
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 7))
        density = rng.uniform(0.2, 0.9)
        m = (rng.random((n, n)) < density) * rng.integers(0, 4, (n, n))
        m = m.astype(int)
        want = oracles.largest_real_root(m)
        # the array, and its entries as rows of Python ints, the form the
        # valence-two comparison hands over for a map of few letters
        for form in (m, m.tolist()):
            worst = max(worst, abs(spectral_radius(form) - want))
    assert worst <= 1e-9


def test_imprimitive_irreducible_block():
    # a 3-cycle with weights 3, 1, 2: irreducible with period 3, so all three
    # eigenvalues share the modulus 6 ** (1/3)
    m = np.array([[0, 0, 3], [1, 0, 0], [0, 2, 0]])
    assert is_irreducible(m)
    assert abs(spectral_radius(m) - 6 ** (1 / 3)) <= 1e-12


def test_defective_reducible_matrix():
    # two Fibonacci blocks on the interleaved index sets {0, 2} and {1, 3},
    # one coupling entry from the first block into the second: the golden
    # ratio is a double eigenvalue of the whole matrix with one eigenvector,
    # and an eigen-solve of the whole matrix misses it by about 1e-8
    m = np.zeros((4, 4), dtype=int)
    m[np.ix_([0, 2], [0, 2])] = [[0, 1], [1, 1]]
    m[np.ix_([1, 3], [1, 3])] = [[0, 1], [1, 1]]
    m[3, 2] = 1
    assert np.linalg.matrix_rank(m - GOLDEN * np.eye(4), tol=1e-9) == 3
    assert sink_components(m) == [[1, 3]]
    assert abs(spectral_radius(m) - GOLDEN) <= 1e-12


def test_is_permutation_matrix():
    cases = [
        (np.eye(3, dtype=int), True),
        (np.roll(np.eye(3, dtype=int), 1, axis=1), True),
        (np.array([[1, 1], [0, 1]]), False),
        (np.array([[2, 0], [0, 1]]), False),
        (np.zeros((2, 2), dtype=int), False),
        (np.array([[1, 0, 0], [0, 1, 0]]), False),
        (np.array([1]), False),
        (np.zeros((0, 0), dtype=int), False),
        # float entries, as spectral_radius hands over its blocks
        (np.eye(3), True),
        (np.roll(np.eye(3), 1, axis=0), True),
        (np.array([[0.5, 0.5], [0.5, 0.5]]), False),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), False),
    ]
    for m, want in cases:
        # the array, and its entries as nested tuples of Python numbers
        nested = tuple(tuple(r) if isinstance(r, list) else r
                       for r in m.tolist())
        assert is_permutation_matrix(m) is want, m
        assert is_permutation_matrix(nested) is want, nested
    # a 0-d array reads as a scalar
    assert is_permutation_matrix(np.array(1)) is False


def test_is_irreducible():
    cases = [
        (np.array([[0, 1], [1, 1]]), True),
        (np.roll(np.eye(3, dtype=int), 1, axis=0), True),
        (np.array([[1, 1], [0, 1]]), False),
        (np.zeros((2, 2), dtype=int), False),
        # 1x1 matrices count as a single strongly connected component
        (np.array([[0]]), True),
        (np.array([[3]]), True),
    ]
    for m, want in cases:
        # the array, and its entries as rows of Python ints, which are
        # decided without NumPy
        assert is_irreducible(m) is want, m
        assert is_irreducible(m.tolist()) is want, m


def test_sink_components_match_condensation():
    # independent oracle: networkx's condensation of the crossing digraph
    # (arc j -> i whenever m[i, j] != 0), minus the sink holding everything
    rng = np.random.default_rng(20261017)
    seen_reducible = seen_irreducible = 0
    for _ in range(300):
        n = int(rng.integers(1, 9))
        m = (rng.random((n, n)) < rng.uniform(0.05, 0.6)).astype(int)
        digraph = nx.DiGraph()
        digraph.add_nodes_from(range(n))
        digraph.add_edges_from((j, i) for i, j in zip(*np.nonzero(m)))
        cond = nx.condensation(digraph)
        want = sorted(sorted(cond.nodes[c]["members"]) for c in cond
                      if cond.out_degree(c) == 0
                      and len(cond.nodes[c]["members"]) < n)
        # the array, its entries as rows of Python ints, and a float array
        # of the same pattern whose entries are not whole
        for form in (m, m.tolist(), m / 3):
            got = sink_components(form)
            assert got == want, m
            assert all(type(i) is int for comp in got for i in comp)
            assert is_irreducible(form) == (got == []), m
        if got:
            seen_reducible += 1
        else:
            seen_irreducible += 1
    assert seen_reducible and seen_irreducible


def test_oracle_self_check():
    # the oracle itself on matrices with known exact values
    assert oracles.largest_real_root(np.array([[2, 0], [0, 3]])) == (
        pytest.approx(3.0, abs=1e-11))
    assert oracles.largest_real_root(np.eye(5, dtype=int)) == (
        pytest.approx(1.0, abs=1e-11))
    assert oracles.largest_real_root(np.array([[0, 1], [1, 1]])) == (
        pytest.approx(GOLDEN, abs=1e-11))
