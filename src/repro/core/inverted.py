"""Inverted index over the leaf cells of ``HG_SV`` (§III-C), as flat arrays.

The index reuses the grid's leaf order: leaf ``i`` owns
``rows[offsets[i]:offsets[i+1]]`` (CSR style), the grid's run of that
leaf re-sorted by column id. A postings list in the paper's sense is one
(leaf, column) run of that order.
"""
from __future__ import annotations

import numpy as np

from repro.core.grid import HierarchicalGrid

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Target rows in (leaf, column) order, with per-leaf offsets."""

    def __init__(self, hg: HierarchicalGrid, col_of_vector: np.ndarray) -> None:
        """``col_of_vector[i]`` is the integer column index of vector i."""
        self.offsets = hg.starts[hg.m]
        starts = self.offsets[:-1]
        leaf = np.repeat(np.arange(len(starts)), np.diff(self.offsets))
        cols = np.asarray(col_of_vector)[hg.order]
        # lexsort's last key is the primary one: leaf, then column.
        order = np.lexsort((cols, leaf))
        self.rows = hg.order[order]
        self.cols = cols[order]
        new_posting = np.ones(len(order), dtype=bool)
        new_posting[1:] = self.cols[1:] != self.cols[:-1]
        new_posting[starts] = True
        #: Number of (leaf, column) postings lists in each leaf.
        self.leaf_postings = np.add.reduceat(new_posting.astype(np.int64), starts)

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Positions in ``rows``/``cols`` of every row of the leaves ``ids``."""
        starts = self.offsets[ids]
        lens = self.offsets[ids + 1] - starts
        # Shift each leaf's run so that the runs lie end to end.
        shift = np.repeat(starts - np.cumsum(lens) + lens, lens)
        return shift + np.arange(len(shift))

    def n_postings(self) -> int:
        return int(self.leaf_postings.sum())
