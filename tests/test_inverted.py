"""The flat (CSR) inverted index and the verifier's bookkeeping."""
from collections import defaultdict

import numpy as np
import pytest

from repro.baselines import exact_scan
from repro.core import block as blockmod
from repro.core import verify as verifymod
from repro.core.grid import DOMAIN, HierarchicalGrid
from repro.core.pexeso import PexesoIndex, t_abs
from repro.core.pivots import pivot_map
from repro.core.regions import lemma1_filter_mask, lemma2_match_mask
from tests.conftest import planted_repo


@pytest.fixture(scope="module", params=[(3, 2, 0), (5, 4, 1)])
def engine(request):
    n_pivots, m, seed = request.param
    Q, X, col, n_cols = planted_repo(seed=seed)
    return Q, col, PexesoIndex(X, col, n_cols, n_pivots=n_pivots, m=m, seed=seed)


def _blocks(engine, Q, tau):
    Qp = pivot_map(Q, engine.pivots)
    return Qp, blockmod.block(HierarchicalGrid(Qp, engine.m), engine.grid, Qp, tau)


def _leaf_coords(e):
    """Leaf coordinates of every target row, from the mapped vectors."""
    side = DOMAIN / (1 << e.m)
    return np.clip(np.floor(e.Xp / side).astype(np.int64), 0, (1 << e.m) - 1)


def _leaf_rows(e, leaf):
    """Rows of leaf ``leaf`` in the grid's own order."""
    s = e.grid.starts[e.m]
    return e.grid.order[s[leaf]:s[leaf + 1]]


def test_every_row_once_and_column_sorted_within_leaf(engine):
    _, col, e = engine
    idx = e.index
    assert np.array_equal(np.sort(idx.rows), np.arange(len(e.X)))
    assert np.array_equal(idx.cols, col[idx.rows])
    assert len(idx.offsets) == e.grid.n_level(e.m) + 1
    coords = _leaf_coords(e)
    for i, cell in enumerate(e.grid.coords[e.m]):
        lo, hi = idx.offsets[i], idx.offsets[i + 1]
        assert np.all(coords[idx.rows[lo:hi]] == cell)
        assert np.all(np.diff(idx.cols[lo:hi]) >= 0)


def test_n_postings_counts_distinct_leaf_column_pairs(engine):
    _, col, e = engine
    pairs = {(tuple(c), k) for c, k in zip(_leaf_coords(e).tolist(), col)}
    assert e.index.n_postings() == len(pairs)


@pytest.mark.parametrize("tau", [0.15, 0.4, 0.7])
@pytest.mark.parametrize("T", [0.3, 0.6, 0.9])
def test_pruned_columns_never_joinable(engine, tau, T):
    Q, col, e = engine
    Qp, blocks = _blocks(e, Q, tau)
    Ta = t_abs(T, len(Q))
    res = verifymod.verify(blocks, e.index, e.X, e.Xp, Q, Qp, tau, Ta, e.n_cols)
    truth = exact_scan.joinable_columns(Q, e.X, col, e.n_cols, tau, Ta)
    for c in res.pruned:
        assert res.mismatch[c] > len(Q) - Ta
        assert c not in truth
    assert res.joinable == truth


def test_some_column_is_pruned(engine):
    """Keeps the test above from passing vacuously."""
    Q, _, e = engine
    Qp, blocks = _blocks(e, Q, 0.4)
    res = verifymod.verify(blocks, e.index, e.X, e.Xp, Q, Qp, 0.4,
                           t_abs(0.9, len(Q)), e.n_cols)
    assert res.pruned


@pytest.mark.parametrize("tau", [0.15, 0.4, 0.7])
def test_pexeso_h_distances_equal_candidate_cell_rows(engine, tau):
    Q, _, e = engine
    _, blocks = _blocks(e, Q, tau)
    rows = sum(len(_leaf_rows(e, leaf)) for leaf in blocks.cand_leaf)
    assert e.search(Q, tau, 0.5, use_inverted=False).n_distance == rows


def _daat_reference(e, col, blocks, Q, Qp, tau, Ta, early_terminate):
    """Algorithm 2 one (query vector, column) at a time, over the grid's
    own leaf lists: (match, mismatch, n_distance)."""
    match = np.zeros(e.n_cols, dtype=np.int64)
    mismatch = np.zeros(e.n_cols, dtype=np.int64)
    n_distance = 0
    for qi in range(len(Q)):
        done = set()
        if early_terminate:
            done = set(np.flatnonzero((match >= Ta) | (mismatch > len(Q) - Ta)))
        matched = {int(col[r]) for leaf in blocks.match_leaf[blocks.match_q == qi]
                   for r in _leaf_rows(e, leaf)} - done
        rows_of = defaultdict(list)
        for leaf in blocks.cand_leaf[blocks.cand_q == qi]:
            for r in _leaf_rows(e, leaf):
                if col[r] not in matched and col[r] not in done:
                    rows_of[int(col[r])].append(r)
        for c, rows in rows_of.items():
            rows = np.asarray(rows)
            got = bool(np.any(lemma2_match_mask(e.Xp[rows], Qp[qi], tau)))
            if not got:
                rows = rows[lemma1_filter_mask(e.Xp[rows], Qp[qi], tau)]
                n_distance += len(rows)
                diff = e.X[rows] - Q[qi]
                got = bool(np.any(np.einsum("ij,ij->i", diff, diff) <= tau * tau))
            if got:
                matched.add(c)
            else:
                mismatch[c] += 1
        match[list(matched)] += 1
    return match, mismatch, n_distance


@pytest.mark.parametrize("early_terminate", [True, False])
@pytest.mark.parametrize("tau", [0.15, 0.4, 0.7])
@pytest.mark.parametrize("T", [0.3, 0.9])
def test_counts_equal_column_at_a_time_reference(engine, tau, T, early_terminate):
    Q, col, e = engine
    Qp, blocks = _blocks(e, Q, tau)
    Ta = t_abs(T, len(Q))
    res = verifymod.verify(blocks, e.index, e.X, e.Xp, Q, Qp, tau, Ta, e.n_cols,
                           early_terminate=early_terminate)
    match, mismatch, n_distance = _daat_reference(e, col, blocks, Q, Qp, tau, Ta,
                                                  early_terminate)
    assert np.array_equal(res.match, match)
    assert np.array_equal(res.mismatch, mismatch)
    assert res.n_distance == n_distance
