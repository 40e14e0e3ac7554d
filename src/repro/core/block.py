"""Algorithm 1: dual-grid blocking, plus quick browsing (§III-B, §III-C).

The descent walks ``HG_Q`` and ``HG_SV`` level-by-level in lockstep
(both grids are built with the same ``m``). Non-leaf pairs are pruned
with Lemma 4 or resolved with Lemma 6; leaf pairs resolve each query
vector with Lemmas 3 and 5. The output pairs ⟨query vector, leaf cell⟩
are accumulated as

- ``mpair[q]``: leaf cells of ``HG_SV`` whose every vector is guaranteed
  to match query vector ``q`` (no distance computation needed), and
- ``cpair[q]``: leaf cells that could not be filtered (candidates).

The walk is *frontier-vectorized*: all surviving (query cell, target
cell) pairs of a level are tested with one batched numpy evaluation of
the Lemma 4/6 predicates, and the leaf level batches Lemmas 3/5 per
query cell over all its paired target cells. This keeps the blocking
phase negligible relative to verification (the paper's §VI-D
observation), which per-pair Python recursion does not.

*Quick browsing*: a query leaf cell and a target leaf cell with the same
coordinates occupy the same space region, so they can never be filtered
by Lemma 3/4 — they are emitted as candidates up front and skipped in
the descent.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.grid import Coords, HierarchicalGrid
from repro.core.regions import box_filtered, box_matched

__all__ = ["BlockResult", "block", "quick_browse"]


class BlockResult:
    """Matching and candidate pairs keyed by query-vector index."""

    def __init__(self) -> None:
        self.mpair: dict[int, list[Coords]] = defaultdict(list)
        self.cpair: dict[int, list[Coords]] = defaultdict(list)

    def n_candidates(self) -> int:
        return sum(len(v) for v in self.cpair.values())

    def n_matches(self) -> int:
        return sum(len(v) for v in self.mpair.values())


def quick_browse(
    hg_q: HierarchicalGrid, hg_s: HierarchicalGrid, out: BlockResult
) -> set[Coords]:
    """Emit same-coordinate leaf pairs as candidates; return those coords."""
    shared = hg_q.leaves.keys() & hg_s.leaves.keys()
    for coords in shared:
        for q in hg_q.vectors_in_leaf(coords).tolist():
            out.cpair[q].append(coords)
    return set(shared)


def block(
    hg_q: HierarchicalGrid,
    hg_s: HierarchicalGrid,
    Qp: np.ndarray,
    tau: float,
    *,
    use_quick_browsing: bool = True,
) -> BlockResult:
    """Run quick browsing + Algorithm 1 and return the pair sets."""
    if hg_q.m != hg_s.m:
        raise ValueError("HG_Q and HG_SV must be built with the same m")
    out = BlockResult()
    skip = quick_browse(hg_q, hg_s, out) if use_quick_browsing else set()
    m = hg_q.m

    def emit_matched_subtree(level: int, cq: Coords, cs: Coords) -> None:
        """Lemma 6 fired: every q under cq matches every leaf under cs."""
        leaf_cells = hg_s.descendant_leaves(level, cs)
        for q_leaf in hg_q.descendant_leaves(level, cq):
            for qi in hg_q.vectors_in_leaf(q_leaf).tolist():
                out.mpair[qi].extend(leaf_cells)

    # Frontier of surviving (query cell, target cell) pairs per level.
    frontier: list[tuple[Coords, Coords]] = [(hg_q.root(), hg_s.root())]
    for level in range(m):
        # Expand every pair into the cross product of its children.
        pairs_q: list[Coords] = []
        pairs_s: list[Coords] = []
        for cq, cs in frontier:
            kids_q = hg_q.child_cells(level, cq)
            kids_s = hg_s.child_cells(level, cs)
            for q_child in kids_q:
                pairs_q.extend([q_child] * len(kids_s))
                pairs_s.extend(kids_s)
        if not pairs_q:
            return out
        child_level = level + 1
        side = hg_q.side(child_level)
        q_arr = np.asarray(pairs_q, dtype=np.float64) * side  # lower corners
        s_arr = np.asarray(pairs_s, dtype=np.float64) * side
        q_up, s_up = q_arr + side, s_arr + side

        if child_level == m:
            _resolve_leaves(hg_q, hg_s, Qp, tau, pairs_q, pairs_s, s_arr, s_up,
                            skip, out)
            return out

        matched = box_matched(s_up, q_up, tau)                 # Lemma 6
        disjoint = box_filtered(s_arr, s_up, q_arr, q_up, tau)  # Lemma 4
        survive = ~matched & ~disjoint

        for i in np.flatnonzero(matched):
            emit_matched_subtree(child_level, pairs_q[i], pairs_s[i])
        frontier = [(pairs_q[i], pairs_s[i]) for i in np.flatnonzero(survive)]
    return out


def _resolve_leaves(
    hg_q: HierarchicalGrid,
    hg_s: HierarchicalGrid,
    Qp: np.ndarray,
    tau: float,
    pairs_q: list[Coords],
    pairs_s: list[Coords],
    s_lo: np.ndarray,
    s_up: np.ndarray,
    skip: set[Coords],
    out: BlockResult,
) -> None:
    """Leaf × leaf: batched Lemmas 3/5 per query cell over its targets."""
    by_qcell: dict[Coords, list[int]] = defaultdict(list)
    for i, cq in enumerate(pairs_q):
        by_qcell[cq].append(i)
    for cq, rows in by_qcell.items():
        q_idx = hg_q.vectors_in_leaf(cq)
        if len(q_idx) == 0:
            continue
        keep = [i for i in rows if not (pairs_s[i] == cq and pairs_s[i] in skip)]
        if not keep:
            continue
        lo, up = s_lo[keep], s_up[keep]          # (t, |P|)
        qc = Qp[q_idx][:, None, :]                # (k, 1, |P|)
        # filtered[k, t]: Lemma 3; matched[k, t]: Lemma 5.
        filtered = box_filtered(lo, up, qc, qc, tau)
        matched = box_matched(up, qc, tau)
        cells = [pairs_s[i] for i in keep]
        for a, qi in enumerate(q_idx.tolist()):
            mt = np.flatnonzero(matched[a])
            cd = np.flatnonzero(~filtered[a] & ~matched[a])
            if len(mt):
                out.mpair[qi].extend(cells[j] for j in mt)
            if len(cd):
                out.cpair[qi].extend(cells[j] for j in cd)
