"""The pruning lemmas of §III as batched predicates in the pivot space.

Vector level (Lemmas 1/2), for mapped rows ``Xp`` and a mapped query q':

- ``SQR(q', τ)`` is the box ``[q' - τ, q' + τ]``: a row outside it is
  farther than τ from q (Lemma 1);
- ``RQR(q', p_j, τ)`` is ``x'[j] <= τ - q'[j]``: a row inside it for some
  pivot j is within τ of q (Lemma 2).

Cell level (Lemmas 3–6), for target cells ``[lo, up]`` and a query box
``[q_lo, q_up]`` — a query vector (``q_lo = q_up = q'``, Lemmas 3/5) or
a query cell (Lemmas 4/6). ``SQR(c_q.center, τ + c_q.length/2)`` is
exactly the box ``[q_lo - τ, q_up + τ]``; for matching, the query cell's
upper corner bounds ``max_{q'∈c_q} q'[j]`` from above, which is sound (a
sufficient condition) and needs no per-vector scan.

Every predicate reduces over the last axis, so the inputs broadcast.
"""
from __future__ import annotations

import numpy as np

__all__ = ["lemma1_filter_mask", "lemma2_match_mask", "box_filtered",
           "box_matched"]


def lemma1_filter_mask(Xp: np.ndarray, qp: np.ndarray, tau: float) -> np.ndarray:
    """Lemma 1: mask of the rows of ``Xp`` that *survive*, i.e. lie in
    SQR(q', τ): |x'[j] - q'[j]| <= τ for every pivot j."""
    return np.all(np.abs(Xp - qp) <= tau, axis=-1)


def lemma2_match_mask(Xp: np.ndarray, qp: np.ndarray, tau: float) -> np.ndarray:
    """Lemma 2: mask of the rows guaranteed to match, i.e. lying in some
    RQR(q', p_j, τ): x'[j] + q'[j] <= τ for some pivot j."""
    return np.any(Xp + qp <= tau, axis=-1)


def box_filtered(
    lo: np.ndarray, up: np.ndarray, q_lo: np.ndarray, q_up: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Lemmas 3/4: the cell misses [q_lo - τ, q_up + τ] → no vector matches."""
    return np.any((lo > q_up + tau) | (up < q_lo - tau), axis=-1)


def box_matched(up: np.ndarray, q_up: np.ndarray, tau: float) -> np.ndarray:
    """Lemmas 5/6: ∃ pivot j with up[j] <= τ - q_up[j] → every vector matches."""
    return np.any(up <= tau - q_up, axis=-1)
