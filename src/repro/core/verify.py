"""Algorithm 2: inverted-index verification (§III-C), and the naive
cell-scan verification of the PEXESO-H baseline (§VI-A).

Blocking gives each query vector q its matching cells (every vector in
them matches q) and its candidate cells. One pass over the rows of those
cells settles every column for q at once:

- a column with a row in a matching cell gains a match;
- every other column of the candidate cells gains a match if Lemma 2
  guarantees one of its rows, else if one of its Lemma 1 survivors is
  within τ by exact distance, and a mismatch otherwise.

A column is visited at most once per query vector, so the two early
terminations of the paper's column-at-a-time (DaaT) order apply between
query vectors:

- a column whose match count reaches ``T_abs`` is joinable, and all of
  its remaining vectors are skipped (paper §III-C, also given to
  baselines);
- a column whose mismatch count exceeds ``|Q| - T_abs`` can never become
  joinable and is pruned (Lemma 7).

``naive=True`` is PEXESO-H: the same blocking, but every row of a
candidate cell costs one exact distance and only the first rule applies
(no inverted index, no Lemma 1/2/7).
"""
from __future__ import annotations

import numpy as np

from repro.core.block import BlockResult
from repro.core.inverted import InvertedIndex
from repro.core.regions import lemma1_filter_mask, lemma2_match_mask

__all__ = ["VerifyResult", "verify"]


class VerifyResult:
    """Match counts per column plus instrumentation counters."""

    def __init__(self, n_cols: int) -> None:
        self.match = np.zeros(n_cols, dtype=np.int64)
        self.mismatch = np.zeros(n_cols, dtype=np.int64)
        self.joinable: set[int] = set()
        self.pruned: set[int] = set()
        self.n_distance = 0      # exact d(·,·) evaluations
        self.n_postings = 0      # postings lists touched

    def joinable_columns(self) -> set[int]:
        return set(self.joinable)


def verify(
    blocks: BlockResult,
    index: InvertedIndex,
    X: np.ndarray,
    Xp: np.ndarray,
    Q: np.ndarray,
    Qp: np.ndarray,
    tau: float,
    T_abs: int,
    n_cols: int,
    *,
    early_terminate: bool = True,
    naive: bool = False,
) -> VerifyResult:
    """Algorithm 2 over the blocking output; returns per-column counts.

    ``early_terminate=False`` disables the reach-T and Lemma-7 skips so
    the per-column match counts are complete — used by exactness tests
    that diff counts against the brute-force scan.
    """
    res = VerifyResult(n_cols)
    prune_bound = len(Q) - T_abs  # Lemma 7: mismatch > bound → never joinable
    skip = np.zeros(n_cols, dtype=bool)
    # Query vector qi's leaf ids are the slice [at[qi], at[qi + 1]).
    m_at = np.searchsorted(blocks.match_q, np.arange(len(Q) + 1))
    c_at = np.searchsorted(blocks.cand_q, np.arange(len(Q) + 1))
    for qi in range(len(Q)):
        m_ids = blocks.match_leaf[m_at[qi]:m_at[qi + 1]]
        c_ids = blocks.cand_leaf[c_at[qi]:c_at[qi + 1]]
        hit = np.zeros(n_cols, dtype=bool)  # columns gaining a match from q
        hit[index.cols[index.gather(m_ids)]] = True
        pos = index.gather(c_ids)
        rows, cols = index.rows[pos], index.cols[pos]
        if naive:
            hit[cols[_within(X[rows], Q[qi], tau)]] = True
            res.n_distance += len(rows)
        else:
            res.n_postings += int(index.leaf_postings[m_ids].sum()
                                  + index.leaf_postings[c_ids].sum())
            keep = ~(skip[cols] | hit[cols])  # drop settled columns' rows
            rows, cols = rows[keep], cols[keep]
            sub = Xp[rows]
            got = np.zeros(n_cols, dtype=bool)
            got[cols[lemma2_match_mask(sub, Qp[qi], tau)]] = True
            rest = ~got[cols] & lemma1_filter_mask(sub, Qp[qi], tau)
            res.n_distance += int(rest.sum())
            got[cols[rest][_within(X[rows[rest]], Q[qi], tau)]] = True
            seen = np.zeros(n_cols, dtype=bool)
            seen[cols] = True
            res.mismatch += seen & ~got
            hit |= got
        res.match += hit & ~skip
        if early_terminate:
            skip = (res.match >= T_abs) | (res.mismatch > prune_bound)
    res.joinable = set(np.flatnonzero(res.match >= T_abs).tolist())
    if early_terminate:
        res.pruned = set(np.flatnonzero(res.mismatch > prune_bound).tolist())
    return res


def _within(X: np.ndarray, qv: np.ndarray, tau: float) -> np.ndarray:
    """Exact-distance mask of the rows of ``X`` within τ of ``qv``."""
    diff = X - qv
    return np.einsum("ij,ij->i", diff, diff) <= tau * tau
