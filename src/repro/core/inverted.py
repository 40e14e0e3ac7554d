"""Inverted index over the leaf cells of ``HG_SV`` (§III-C), as flat arrays.

The target rows are sorted by (leaf-cell coordinates, column) with one
``lexsort``, CSR style: leaf ``i`` owns ``rows[offsets[i]:offsets[i+1]]``,
and within a leaf the rows are grouped by column id. A postings list in
the paper's sense is one (leaf, column) run of that order.
"""
from __future__ import annotations

import numpy as np

from repro.core.grid import Coords, HierarchicalGrid

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Target rows in (leaf, column) order, with per-leaf offsets."""

    def __init__(self, hg: HierarchicalGrid, col_of_vector: np.ndarray) -> None:
        """``col_of_vector[i]`` is the integer column index of vector i."""
        # lexsort's last key is the primary one: leaf coords, then column.
        order = np.lexsort((col_of_vector, *hg.leaf_of_vector.T[::-1]))
        leaf = hg.leaf_of_vector[order]
        self.rows = order
        self.cols = np.asarray(col_of_vector)[order]
        new_leaf = np.ones(len(order), dtype=bool)
        new_leaf[1:] = np.any(leaf[1:] != leaf[:-1], axis=1)
        new_posting = new_leaf.copy()
        new_posting[1:] |= self.cols[1:] != self.cols[:-1]
        starts = np.flatnonzero(new_leaf)
        self.offsets = np.append(starts, len(order))
        self.leaf_id: dict[Coords, int] = dict(
            zip(map(tuple, leaf[starts].tolist()), range(len(starts)))
        )
        #: Number of (leaf, column) postings lists in each leaf.
        self.leaf_postings = np.add.reduceat(new_posting.astype(np.int64), starts)

    def leaf_ids(self, cells: list[Coords]) -> np.ndarray:
        """Ids of the (non-empty) leaf cells ``cells``."""
        return np.fromiter((self.leaf_id[c] for c in cells), np.int64, len(cells))

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Positions in ``rows``/``cols`` of every row of the leaves ``ids``."""
        starts = self.offsets[ids]
        lens = self.offsets[ids + 1] - starts
        # Shift each leaf's run so that the runs lie end to end.
        shift = np.repeat(starts - np.cumsum(lens) + lens, lens)
        return shift + np.arange(len(shift))

    def n_postings(self) -> int:
        return int(self.leaf_postings.sum())
