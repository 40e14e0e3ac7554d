"""Hierarchical grids over the pivot space (§III-B), as flat arrays.

The pivot space is the hyper-cube ``[0, DOMAIN]^{|P|}`` (DOMAIN = 2 for
unit-normalized vectors under Euclidean distance). Level ``l`` of an
``m``-level grid splits each dimension into ``2^l`` equal parts, giving
``2^{|P|·l}`` cells; only non-empty cells are materialized. A cell's
coordinates are its integer per-dimension indices; the parent of a cell
halves each coordinate (``coords >> 1``). Level 0 is the root.

``HierarchicalGrid`` sorts its vectors once into *hierarchical order*:
one ``lexsort`` over ``m`` per-level digits, where the level-``l`` digit
packs bit ``m-l`` of every leaf coordinate (one bit per pivot, so a
digit stays below ``2^|P|`` and no packed key can overflow). In that order every cell at every level is one
contiguous run of vectors, and the runs of level ``l+1`` nest inside
those of level ``l``. Per level, cells are numbered in that order and
the grid keeps, as arrays indexed by cell:

- ``starts[l]``: the start of each cell's run in ``order`` (plus a final
  ``n``), so cell ``c`` holds ``order[starts[l][c]:starts[l][c+1]]``;
- ``coords[l]``: the cell coordinates;
- ``first_child[l]``: the cell's children are the level-``l+1`` cells
  ``first_child[l][c]`` up to ``first_child[l][c+1]``;
- ``first_leaf[l]``: the same for the cell's leaf (level-``m``) cells.
"""
from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = ["DOMAIN", "HierarchicalGrid"]

#: Extent of the pivot space per dimension (max pairwise distance, §V).
DOMAIN = 2.0

Coords = tuple[int, ...]


class HierarchicalGrid:
    """An m-level grid over mapped vectors ``Xp`` (shape (n, |P|))."""

    def __init__(self, Xp: np.ndarray, m: int) -> None:
        if m < 1:
            raise ValueError("grid needs at least one level")
        self.m = m
        self.n, self.dims = Xp.shape
        # Leaf coordinates per vector; clip handles x == DOMAIN exactly.
        leaf = np.floor(Xp / self.side(m)).astype(np.int64)
        np.clip(leaf, 0, (1 << m) - 1, out=leaf)
        weights = 1 << np.arange(self.dims, dtype=np.int64)
        digits = [((leaf >> (m - l)) & 1) @ weights for l in range(1, m + 1)]
        # lexsort's last key is the primary one: level 1's digit.
        self.order = np.lexsort(digits[::-1])
        leaf = leaf[self.order]

        new = np.zeros(self.n, dtype=bool)
        new[:1] = True
        self.starts = [np.array([0, self.n] if self.n else [0])]
        for d in digits:
            d = d[self.order]
            new[1:] |= d[1:] != d[:-1]
            self.starts.append(np.append(np.flatnonzero(new), self.n))
        self.coords = [leaf[s[:-1]] >> (m - l) for l, s in enumerate(self.starts)]
        self.first_child = [np.searchsorted(self.starts[l + 1], s)
                            for l, s in enumerate(self.starts[:-1])]
        self.first_leaf = [np.searchsorted(self.starts[m], s) for s in self.starts]

    # -- geometry --------------------------------------------------------
    def side(self, level: int) -> float:
        """Edge length of a cell at ``level``."""
        return DOMAIN / (1 << level)

    def n_level(self, level: int) -> int:
        """Number of non-empty cells at ``level``."""
        return len(self.starts[level]) - 1

    def n_cells(self) -> int:
        """Total number of materialized cells across all levels."""
        return sum(self.n_level(l) for l in range(self.m + 1))

    @cached_property
    def leaves(self) -> Mapping[Coords, np.ndarray]:
        """Leaf coordinates → vector indices, for inspection (search uses
        the arrays)."""
        runs = np.split(self.order, self.starts[self.m][1:-1])
        keys = map(tuple, self.coords[self.m].tolist())
        return MappingProxyType(dict(zip(keys, runs)))
