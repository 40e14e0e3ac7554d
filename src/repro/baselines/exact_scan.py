"""Brute-force joinability: the naive method of §III and the test oracle.

Computes every query-target distance (``|Q| · |S_V|`` evaluations) and
the exact per-column match counts. All other methods must agree with
this on joinable sets (PEXESO, CTREE, EPT exactly; PQ approximately).

``ReachTCounter`` is the per-column match counter with the reach-T early
termination that the CTREE and EPT baselines share.
"""
from __future__ import annotations

import numpy as np

__all__ = ["match_counts", "joinable_columns", "ReachTCounter"]


def match_counts(
    Q: np.ndarray, X: np.ndarray, col_of_vector: np.ndarray, n_cols: int, tau: float
) -> np.ndarray:
    """Exact per-column count of query vectors with ≥1 match in the column."""
    counts = np.zeros(n_cols, dtype=np.int64)
    tau2 = tau * tau
    x2 = np.einsum("ij,ij->i", X, X)
    for q in Q:
        d2 = x2 + q @ q - 2.0 * (X @ q)
        hit_cols = np.unique(col_of_vector[d2 <= tau2])
        counts[hit_cols] += 1
    return counts


def joinable_columns(
    Q: np.ndarray,
    X: np.ndarray,
    col_of_vector: np.ndarray,
    n_cols: int,
    tau: float,
    T_abs: int,
) -> set[int]:
    """Exact joinable column set at absolute threshold ``T_abs``."""
    counts = match_counts(Q, X, col_of_vector, n_cols, tau)
    return set(np.flatnonzero(counts >= T_abs).tolist())


class ReachTCounter:
    """One match per (query vector, column); a column whose count reaches
    ``T_abs`` is joinable, and searchers skip it from then on."""

    def __init__(self, n_cols: int, T_abs: int) -> None:
        self.counts = np.zeros(n_cols, dtype=np.int64)
        self.T_abs = T_abs
        self.joinable: set[int] = set()

    def add(self, cols: list[int]) -> None:
        """Count the distinct columns one query vector matched."""
        for col in cols:
            if col not in self.joinable:
                self.counts[col] += 1
                if self.counts[col] >= self.T_abs:
                    self.joinable.add(col)
