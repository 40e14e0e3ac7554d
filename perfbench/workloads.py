"""Inputs of the benchmark workloads, made from a seed.

A workload is a target repository (vectors plus the column of each
vector) and a pool of ``pool`` query columns that a run cycles through,
so that every query runs several times and its latency is a median
over them. Query ``k``
depends only on the seed and ``k``, so the same seed always gives the
same queries.

Every workload keeps its repository fixed, and the pool's source
columns (string workloads) or near-duplicate groups (``lowdim-200k``)
too: the seed draws what each query holds, so that runs with different
seeds differ in their queries' contents only, and a pool of a dozen
queries costs about the same on every seed. String workloads use the
``repro.lake`` presets; each query is a sample of one target column's
strings, some of them perturbed (typos, abbreviations, reformatting),
so most queries have a joinable answer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.embedding.perturb import perturb
from repro.lake.generator import (
    LWDC_LITE, SWDC_LITE, DataLake, make_lake, normalize,
)

__all__ = ["T", "N_PIVOTS", "M", "Workload", "WORKLOADS", "make_workload"]

#: Joinability threshold, pivot count and grid levels of every workload.
T = 0.6
N_PIVOTS = 5
M = 4

#: Seed of the ``lowdim-200k`` repository.
_LOWDIM_LAKE_SEED = 20210419
#: Seed of the choice of each workload's query sources.
_PANEL_SEED = 20210420

#: Share of a string query's strings that are perturbed.
_PERTURB_RATE = 0.3


@dataclass
class Workload:
    """One generated workload: repository, query stream and parameters."""

    name: str
    X: np.ndarray               # (|S_V|, dim) unit rows
    col_of_vector: np.ndarray   # row -> column index in [0, n_cols)
    n_cols: int
    tau: float
    query: Callable[[int], object]   # k -> list[str] or (|Q|, dim) array
    pool: int                   # distinct queries, k in [0, pool)
    model: str | None           # embedding model of string queries
    lake: DataLake | None       # the string lake, when there is one

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def _lake_arrays(lake: DataLake) -> tuple[np.ndarray, np.ndarray]:
    X = np.vstack([c.vectors for c in lake.columns])
    col = np.repeat(np.arange(len(lake.columns)), [len(c) for c in lake.columns])
    return X, col


def _panel(n: int, pool: int) -> np.ndarray:
    """The ``pool`` query sources out of ``n``, the same on every seed."""
    return np.random.default_rng(_PANEL_SEED).permutation(n)[:pool]


def _string_workload(name: str, preset: dict, tau: float, pool: int,
                     seed: int) -> Workload:
    lake = make_lake(**preset)
    X, col = _lake_arrays(lake)
    n_q = preset["n_query"]
    panel = _panel(len(lake.columns), pool)

    def query(k: int) -> list[str]:
        g = np.random.default_rng([seed, 1, k])
        source = lake.columns[panel[k]].strings
        picked = g.choice(len(source), size=n_q, replace=len(source) < n_q)
        return [
            normalize(perturb(source[j], g) if g.random() < _PERTURB_RATE
                      else source[j])
            for j in picked
        ]

    return Workload(name, X, col, len(lake.columns), tau, query, pool,
                    lake.model, lake)


def _unit(V: np.ndarray) -> np.ndarray:
    return V / np.linalg.norm(V, axis=1, keepdims=True)


def _near(V: np.ndarray, g: np.random.Generator, dist: float) -> np.ndarray:
    """Unit rows about ``dist`` away from the unit rows of ``V``."""
    noise = g.standard_normal(V.shape) * (dist / np.sqrt(V.shape[1]))
    return _unit(V + noise)


def _lowdim_workload(pool: int, seed: int) -> Workload:
    """200K x 50-d unit vectors of intrinsic dimension ~8, in 10K columns.

    Latent cluster centres in 8-d are mapped to 50-d by one random
    linear map and normalised: isotropic 50-d clusters would crowd into
    a few grid cells and have no pair within τ. Near-duplicate groups
    are planted: each group has a hidden base column and four stored
    copies, each holding 10-20 of the base's 20 vectors at distance
    ~τ/2 (the rest drawn from the copy's own cluster). A query is a
    noisy copy, drawn from the seed, of one group's base, so each query
    has about four
    near-duplicate columns, joinable when they share >= T of it.
    """
    tau = 0.04
    n_cols, col_size, dim, latent = 10_000, 20, 50, 8
    n_clusters, n_groups, copies = 256, 1_000, 4
    g = np.random.default_rng(_LOWDIM_LAKE_SEED)
    A = g.standard_normal((latent, dim))
    centres = g.standard_normal((n_clusters, latent))
    cluster_of_col = g.integers(0, n_clusters, n_cols)

    def draw(cluster: np.ndarray) -> np.ndarray:
        Z = centres[cluster] + 0.35 * g.standard_normal((len(cluster), latent))
        return _unit(Z @ A)

    X = draw(np.repeat(cluster_of_col, col_size))
    base_cluster = g.integers(0, n_clusters, n_groups)
    bases = draw(np.repeat(base_cluster, col_size)).reshape(n_groups, col_size, dim)
    planted = g.permutation(n_cols)[: n_groups * copies].reshape(n_groups, copies)
    for grp in range(n_groups):
        for c in planted[grp]:
            k = int(g.integers(10, col_size + 1))
            rows = c * col_size + np.arange(k)
            X[rows] = _near(bases[grp][g.choice(col_size, k, replace=False)],
                            g, tau / 2)
    col = np.repeat(np.arange(n_cols), col_size)
    panel = _panel(n_groups, pool)

    def query(k: int) -> np.ndarray:
        q = np.random.default_rng([seed, 3, k])
        return _near(bases[panel[k]], q, tau / 4)

    return Workload("lowdim-200k", X, col, n_cols, tau, query, pool, None, None)


#: Workload name -> maker(seed). τ = 0.12 is the paper's raw 6 %. A pool
#: holds three to six seconds of queries, so that an 18-second run sends
#: each query three to six times.
WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "swdc-verify": lambda s: _string_workload("swdc-verify", SWDC_LITE, 0.12,
                                              12, s),
    "lowdim-200k": lambda s: _lowdim_workload(24, s),
    "spark-lwdc": lambda s: _string_workload("spark-lwdc", LWDC_LITE, 0.12,
                                             3, s),
}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
