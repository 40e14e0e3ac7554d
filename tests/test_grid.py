"""Tests for the hierarchical grid and its flat per-level arrays."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.grid import DOMAIN, HierarchicalGrid
from repro.core.pivots import pivot_map, select_pivots
from tests.conftest import unit_rows


def _mapped(n=200, dim=12, n_pivots=3, seed=0):
    X = unit_rows(n, dim, seed)
    P = select_pivots(X, n_pivots, seed=seed)
    return pivot_map(X, P)


def _leaf_of_position(hg):
    """Leaf id of each position of ``hg.order``."""
    return np.repeat(np.arange(hg.n_level(hg.m)), np.diff(hg.starts[hg.m]))


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_every_vector_in_exactly_one_leaf(m):
    Xp = _mapped()
    hg = HierarchicalGrid(Xp, m)
    assert np.array_equal(np.sort(hg.order), np.arange(len(Xp)))
    s = hg.starts[m]
    assert s[0] == 0 and s[-1] == len(Xp) and np.all(np.diff(s) > 0)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_leaf_bounds_contain_vectors(m):
    Xp = _mapped()
    hg = HierarchicalGrid(Xp, m)
    lo = hg.coords[m][_leaf_of_position(hg)] * hg.side(m)
    pts = Xp[hg.order]
    assert np.all(pts >= lo - 1e-12) and np.all(pts <= lo + hg.side(m) + 1e-12)


def test_side_lengths_halve():
    hg = HierarchicalGrid(_mapped(), 3)
    assert hg.side(1) == DOMAIN / 2
    assert hg.side(2) == DOMAIN / 4
    assert hg.side(3) == DOMAIN / 8


def test_children_partition_parents():
    hg = HierarchicalGrid(_mapped(), 3)
    # Walking root→leaves reaches every occupied leaf exactly once.
    cells = np.arange(hg.n_level(0))
    for level in range(hg.m):
        k = hg.first_child[level]
        cells = np.concatenate([np.arange(k[c], k[c + 1]) for c in cells])
    assert np.array_equal(cells, np.arange(hg.n_level(hg.m)))


def test_child_coords_are_children():
    hg = HierarchicalGrid(_mapped(), 3)
    for level in range(hg.m):
        parent = np.repeat(np.arange(hg.n_level(level)), np.diff(hg.first_child[level]))
        assert np.array_equal(hg.coords[level + 1] >> 1, hg.coords[level][parent])


def test_boundary_value_clipped():
    """A coordinate exactly at DOMAIN lands in the last cell, not out of range."""
    Xp = np.array([[DOMAIN, 0.0], [0.0, DOMAIN]])
    hg = HierarchicalGrid(Xp, 2)
    assert np.all((hg.coords[2] >= 0) & (hg.coords[2] < 4))
    assert {(3, 0), (0, 3)} == set(hg.leaves)


def test_m_zero_rejected():
    with pytest.raises(ValueError):
        HierarchicalGrid(_mapped(), 0)


def test_n_cells_counts_all_levels():
    hg = HierarchicalGrid(_mapped(), 2)
    assert hg.n_level(0) == 1
    assert hg.n_cells() == sum(len(c) for c in hg.coords)
    # Every non-leaf cell has a child.
    assert hg.n_cells() == len(hg.leaves) + sum(
        int(np.sum(np.diff(k) > 0)) for k in hg.first_child)


def test_empty_leaf_lookup():
    hg = HierarchicalGrid(_mapped(), 2)
    assert hg.leaves.get((999, 999, 999)) is None
    for c, coords in enumerate(hg.coords[2]):
        run = hg.order[hg.starts[2][c]:hg.starts[2][c + 1]]
        assert np.array_equal(hg.leaves[tuple(coords)], run)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 8), st.integers(0, 80),
       st.integers(0, 10_000))
@example(9, 8, 80, 0)
def test_cells_are_nested_contiguous_runs(dims, m, n, seed):
    """Every level-l cell is one contiguous run of ``order``, and the runs
    of level l+1 nest inside those of level l."""
    g = np.random.default_rng(seed)
    Xp = g.uniform(0, DOMAIN, (n, dims))
    Xp[g.random((n, dims)) < 0.1] = DOMAIN  # the clipped boundary
    if n > 1:
        Xp[-1] = Xp[0]                       # a shared leaf
    hg = HierarchicalGrid(Xp, m)
    leaf = np.minimum(np.floor(Xp / hg.side(m)).astype(np.int64), (1 << m) - 1)
    for level in range(m + 1):
        s, coords = hg.starts[level], hg.coords[level]
        assert s[0] == 0 and s[-1] == n and np.all(np.diff(s) > 0)
        cell = np.repeat(np.arange(len(coords)), np.diff(s))
        assert np.array_equal(leaf[hg.order] >> (m - level), coords[cell])
        assert len(np.unique(coords, axis=0)) == len(coords)  # one run per cell
        assert np.array_equal(hg.first_leaf[level],
                              np.searchsorted(hg.starts[m], s))
        if level < m:
            k = hg.first_child[level]
            assert k[0] == 0 and k[-1] == hg.n_level(level + 1)
            assert np.all(np.diff(k) > 0)
            assert np.array_equal(hg.starts[level + 1][k], s)  # nested runs
