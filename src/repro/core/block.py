"""Algorithm 1: dual-grid blocking, with quick browsing (§III-B, §III-C).

The descent walks ``HG_Q`` and ``HG_SV`` level by level in lockstep
(both grids are built with the same ``m``). Its frontier is two integer
arrays, the cell indices of the surviving (query cell, target cell)
pairs. Each level expands every pair into the cross product of the two
cells' children and tests them, ``CHUNK`` pairs per batched predicate:

- above the leaves, Lemma 6 matches a pair (every query vector under the
  query cell matches every vector under the target cell) and Lemma 4
  filters it;
- at the leaves, each vector of the query leaf is tested against the
  target leaf: Lemma 5 matches, Lemma 3 filters, anything else is a
  candidate.

*Quick browsing*: leaves with identical coordinates occupy the same
region, which Lemmas 3/4 can never filter, so each query vector of such
a pair is a candidate without a test. Identical pairs that Lemma 6
matched higher up are followed down to the leaves too, so they are both
matches and candidates, as an up-front pass over the shared leaves
would emit them.
"""
from __future__ import annotations

import numpy as np

from repro.core.grid import HierarchicalGrid
from repro.core.regions import box_filtered, box_matched

__all__ = ["BlockResult", "block"]

#: Cell pairs per batched predicate call; bounds a level's transient memory.
CHUNK = 8192


class BlockResult:
    """⟨query vector, target leaf id⟩ pairs, sorted by query vector:
    matches (every vector of the leaf matches the query vector) and
    candidates (the leaf could not be filtered). Leaf ids index the leaf
    level of ``HG_SV`` and the inverted index."""

    def __init__(self, match_q: np.ndarray, match_leaf: np.ndarray,
                 cand_q: np.ndarray, cand_leaf: np.ndarray) -> None:
        self.match_q, self.match_leaf = match_q, match_leaf
        self.cand_q, self.cand_leaf = cand_q, cand_leaf

    def n_candidates(self) -> int:
        return len(self.cand_q)

    def n_matches(self) -> int:
        return len(self.match_q)


def block(
    hg_q: HierarchicalGrid,
    hg_s: HierarchicalGrid,
    Qp: np.ndarray,
    tau: float,
    *,
    use_quick_browsing: bool = True,
) -> BlockResult:
    """Run Algorithm 1 with quick browsing and return the pair sets."""
    if hg_q.m != hg_s.m:
        raise ValueError("HG_Q and HG_SV must be built with the same m")
    m = hg_q.m
    # (positions in hg_q.order, leaf ids) parts of the two outputs.
    none = np.zeros(0, dtype=np.int64)
    matches, cands = [(none, none)], [(none, none)]
    fq = fs = np.zeros(min(hg_q.n_level(0), hg_s.n_level(0)), dtype=np.int64)
    same = np.ones(len(fq), dtype=bool)   # the two cells' coords are equal
    done = np.zeros(len(fq), dtype=bool)  # Lemma 6 matched it higher up
    for level in range(1, m):
        fq, fs, owner = _children(hg_q, hg_s, level - 1, fq, fs)
        same = _same(hg_q, hg_s, level, fq, fs, same[owner])
        done = done[owner]
        keep = np.zeros(len(fq), dtype=bool)
        qs, ls = hg_q.starts[level], hg_s.first_leaf[level]
        for sl in _chunks(len(fq)):
            cq, cs, was = fq[sl], fs[sl], done[sl]
            q_lo, q_up = _corners(hg_q, level, cq)
            s_lo, s_up = _corners(hg_s, level, cs)
            matched = ~was & box_matched(s_up, q_up, tau)  # Lemma 6
            filtered = box_filtered(s_lo, s_up, q_lo, q_up, tau)  # Lemma 4
            keep[sl] = ~(was | matched | filtered)
            done[sl] = was | matched
            if use_quick_browsing:
                keep[sl] |= done[sl] & same[sl]
            # Every query vector under cq matches every leaf under cs.
            cq, cs = cq[matched], cs[matched]
            pos, leaf, _ = _cross(qs[cq], qs[cq + 1], ls[cs], ls[cs + 1])
            matches.append((pos, leaf))
        fq, fs, same, done = fq[keep], fs[keep], same[keep], done[keep]

    fq, fs, owner = _children(hg_q, hg_s, m - 1, fq, fs)
    direct = _same(hg_q, hg_s, m, fq, fs, same[owner] & use_quick_browsing)
    qs = hg_q.starts[m]
    cq, cs = fq[direct], fs[direct]
    cands.append(_cross(qs[cq], qs[cq + 1], cs, cs + 1)[:2])  # quick browsing
    test = ~(direct | done[owner])
    fq, fs = fq[test], fs[test]
    for sl in _chunks(len(fq)):
        cq, cs = fq[sl], fs[sl]
        pos, leaf, _ = _cross(qs[cq], qs[cq + 1], cs, cs + 1)
        qp = Qp[hg_q.order[pos]]
        lo, up = _corners(hg_s, m, leaf)
        matched = box_matched(up, qp, tau)  # Lemma 5
        cand = ~matched & ~box_filtered(lo, up, qp, qp, tau)  # Lemma 3
        matches.append((pos[matched], leaf[matched]))
        cands.append((pos[cand], leaf[cand]))
    return BlockResult(*_by_query(hg_q, matches), *_by_query(hg_q, cands))


def _cross(a0: np.ndarray, a1: np.ndarray, b0: np.ndarray, b1: np.ndarray):
    """Every ``(a, b)`` with ``a0[i] <= a < a1[i]`` and ``b0[i] <= b < b1[i]``,
    over all ``i``, as ``(a, b, i)`` arrays."""
    nb = b1 - b0
    n = (a1 - a0) * nb
    owner = np.repeat(np.arange(len(n)), n)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(n) - n, n)
    nb = nb[owner]
    return a0[owner] + k // nb, b0[owner] + k % nb, owner


def _children(hg_q, hg_s, level, fq, fs):
    """Cross product of the children of each frontier pair at ``level``."""
    kq, ks = hg_q.first_child[level], hg_s.first_child[level]
    return _cross(kq[fq], kq[fq + 1], ks[fs], ks[fs + 1])


def _same(hg_q, hg_s, level, cq, cs, parent_same) -> np.ndarray:
    """Mask of the pairs whose two cells have identical coordinates; only
    the children of such a pair (``parent_same``) can have them."""
    i = np.flatnonzero(parent_same)
    out = np.zeros(len(cq), dtype=bool)
    out[i] = np.all(hg_q.coords[level][cq[i]] == hg_s.coords[level][cs[i]], axis=1)
    return out


def _corners(hg: HierarchicalGrid, level: int, cells: np.ndarray):
    lo = hg.coords[level][cells] * hg.side(level)
    return lo, lo + hg.side(level)


def _chunks(n: int):
    return (slice(i, i + CHUNK) for i in range(0, n, CHUNK))


def _by_query(hg_q, parts):
    """(query vector, leaf id) arrays of ``parts``, sorted by query vector."""
    q = hg_q.order[np.concatenate([p for p, _ in parts])]
    order = np.argsort(q, kind="stable")
    return q[order], np.concatenate([leaf for _, leaf in parts])[order]
