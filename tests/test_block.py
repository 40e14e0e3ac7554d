"""Tests for Algorithm 1 (blocking) and quick browsing."""
import numpy as np
import pytest

from repro.core import block as blockmod
from repro.core.block import BlockResult, block
from repro.core.grid import DOMAIN, HierarchicalGrid
from repro.core.pivots import pivot_map, select_pivots
from repro.core.regions import box_filtered, box_matched
from tests.conftest import planted_repo


def _setup(tau_seed=0, n_pivots=3, m=3):
    Q, X, col, n_cols = planted_repo(seed=tau_seed)
    P = select_pivots(X, n_pivots, seed=tau_seed)
    Xp, Qp = pivot_map(X, P), pivot_map(Q, P)
    return Q, X, Qp, Xp


def _pairs(r: BlockResult):
    """(match pairs, candidate pairs) as sets of (query vector, leaf id)."""
    return (set(zip(r.match_q.tolist(), r.match_leaf.tolist())),
            set(zip(r.cand_q.tolist(), r.cand_leaf.tolist())))


def _leaf_rows(hg, leaf):
    return hg.order[hg.starts[hg.m][leaf]:hg.starts[hg.m][leaf + 1]]


def _leaf_coords(Xp, m):
    return np.clip(np.floor(Xp / (DOMAIN / (1 << m))).astype(np.int64), 0, (1 << m) - 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("tau", [0.1, 0.4, 0.8])
def test_blocking_complete(m, tau):
    """Completeness: every true match (q, x) appears in a match or candidate pair."""
    Q, X, Qp, Xp = _setup(m=m)
    hg_q, hg_s = HierarchicalGrid(Qp, m), HierarchicalGrid(Xp, m)
    matched, cands = _pairs(block(hg_q, hg_s, Qp, tau))
    leaf_of = np.empty(len(X), dtype=np.int64)
    leaf_of[hg_s.order] = np.repeat(np.arange(hg_s.n_level(m)), np.diff(hg_s.starts[m]))
    d = np.linalg.norm(Q[:, None, :] - X[None, :, :], axis=2)
    for qi, xi in zip(*np.where(d <= tau)):
        assert (qi, leaf_of[xi]) in matched | cands, (qi, xi)


@pytest.mark.parametrize("tau", [0.1, 0.4])
def test_matching_pairs_sound(tau):
    """Every vector in a matching leaf really matches the query vector."""
    Q, X, Qp, Xp = _setup()
    m = 3
    hg_q, hg_s = HierarchicalGrid(Qp, m), HierarchicalGrid(Xp, m)
    res = block(hg_q, hg_s, Qp, tau)
    for qi, leaf in zip(res.match_q, res.match_leaf):
        d = np.linalg.norm(X[_leaf_rows(hg_s, leaf)] - Q[qi], axis=1)
        assert np.all(d <= tau + 1e-9)


def test_quick_browsing_equivalent():
    """Same pair *sets* with and without quick browsing."""
    Q, X, Qp, Xp = _setup()
    m, tau = 3, 0.4
    hg_q, hg_s = HierarchicalGrid(Qp, m), HierarchicalGrid(Xp, m)
    with_qb = block(hg_q, hg_s, Qp, tau, use_quick_browsing=True)
    without = block(hg_q, hg_s, Qp, tau, use_quick_browsing=False)
    assert _pairs(with_qb) == _pairs(without)


def test_quick_browse_emits_shared_leaves():
    """Every query vector of a leaf that HG_SV shares is a candidate of
    that leaf."""
    Q, X, Qp, Xp = _setup()
    hg_q, hg_s = HierarchicalGrid(Qp, 3), HierarchicalGrid(Xp, 3)
    _, cands = _pairs(block(hg_q, hg_s, Qp, 0.05))
    leaf_id = {tuple(c): i for i, c in enumerate(hg_s.coords[3].tolist())}
    shared = {(qi, leaf_id[tuple(c)])
              for qi, c in enumerate(_leaf_coords(Qp, 3).tolist())
              if tuple(c) in leaf_id}
    assert shared and shared <= cands
    assert hg_q.leaves.keys() & hg_s.leaves.keys() == {
        tuple(hg_s.coords[3][leaf]) for _, leaf in shared}


def test_mismatched_levels_rejected():
    Q, X, Qp, Xp = _setup()
    with pytest.raises(ValueError):
        block(HierarchicalGrid(Qp, 2), HierarchicalGrid(Xp, 3), Qp, 0.3)


def test_larger_tau_more_candidates():
    Q, X, Qp, Xp = _setup()
    hg_q, hg_s = HierarchicalGrid(Qp, 3), HierarchicalGrid(Xp, 3)
    small = block(hg_q, hg_s, Qp, 0.05)
    large = block(hg_q, hg_s, Qp, 0.8)
    total_small = small.n_candidates() + small.n_matches()
    total_large = large.n_candidates() + large.n_matches()
    assert total_large >= total_small


def test_blocking_prunes_at_small_tau():
    """At tiny τ most (q, leaf) pairs must be pruned."""
    Q, X, Qp, Xp = _setup()
    hg_q, hg_s = HierarchicalGrid(Qp, 3), HierarchicalGrid(Xp, 3)
    res = block(hg_q, hg_s, Qp, 0.05)
    exhaustive = len(Q) * len(hg_s.leaves)
    assert res.n_candidates() + res.n_matches() < exhaustive * 0.5


def _reference(Qp, hg_s, tau, quick):
    """Algorithm 1 one (query vector, target leaf) pair at a time, with the
    lemmas written out: (match pairs, candidate pairs)."""
    m = hg_s.m
    matched, cands = set(), set()
    for qi, (qc, qp) in enumerate(zip(_leaf_coords(Qp, m).tolist(), Qp.tolist())):
        for leaf, sc in enumerate(hg_s.coords[m].tolist()):
            same = quick and qc == sc
            if same:                                   # quick browsing
                cands.add((qi, leaf))
            for level in range(1, m + 1):
                side = DOMAIN / (1 << level)
                lo = [(c >> (m - level)) * side for c in sc]
                if level < m:                          # query cell box
                    q_lo = [(c >> (m - level)) * side for c in qc]
                    q_up = [x + side for x in q_lo]
                else:                                  # query vector
                    q_lo = q_up = qp
                if level == m and same:
                    break
                if any(x + side <= tau - q for x, q in zip(lo, q_up)):  # Lemmas 5/6
                    matched.add((qi, leaf))
                    break
                if any(x > b + tau or x + side < a - tau                # Lemmas 3/4
                       for x, a, b in zip(lo, q_lo, q_up)):
                    break
                if level == m:
                    cands.add((qi, leaf))
    return matched, cands


@pytest.mark.parametrize("quick", [True, False])
@pytest.mark.parametrize("tau", [0.05, 0.4, 1.2])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_equals_pairwise_reference(seed, m, tau, quick):
    """``block`` emits exactly the reference's pairs, each once per kind."""
    Q, X, Qp, Xp = _setup(tau_seed=seed, m=m)
    hg_q, hg_s = HierarchicalGrid(Qp, m), HierarchicalGrid(Xp, m)
    res = block(hg_q, hg_s, Qp, tau, use_quick_browsing=quick)
    matched, cands = _pairs(res)
    assert (matched, cands) == _reference(Qp, hg_s, tau, quick)
    assert (res.n_matches(), res.n_candidates()) == (len(matched), len(cands))
    assert np.all(np.diff(res.match_q) >= 0) and np.all(np.diff(res.cand_q) >= 0)


@pytest.mark.parametrize("quick", [True, False])
@pytest.mark.parametrize("m", [3, 4])
def test_block_chunk_seams(m, quick, monkeypatch):
    """A chunk size of a small prime puts seams inside every level and
    changes nothing."""
    Q, X, Qp, Xp = _setup(m=m)
    hg_q, hg_s = HierarchicalGrid(Qp, m), HierarchicalGrid(Xp, m)
    monkeypatch.setattr(blockmod, "CHUNK", 7)
    res = block(hg_q, hg_s, Qp, 1.2, use_quick_browsing=quick)
    matched, cands = _pairs(res)
    assert (matched, cands) == _reference(Qp, hg_s, 1.2, quick)
    assert (res.n_matches(), res.n_candidates()) == (len(matched), len(cands))
    # Lemma 6 fires on identical cells here: such pairs are both kinds.
    assert bool(matched & cands) == quick
