"""Distributed joinable-table search (§IV mapped to Spark).

The paper's out-of-core design — partition the columns, index each
partition with a single PEXESO, search partitions one at a time, merge
results — is exactly a distributed dataflow: here each partition is a
Spark group, searched in parallel by the numpy engine inside
``applyInPandas``, and the merge is a Catalyst filter/union. A column
lives in exactly one partition, so merging is a plain union of
per-partition joinable sets (no cross-partition aggregation needed).

Input repository DataFrame schema: ``col_id string, vec_id long,
value string, vec array<double>`` (see ``lake_to_spark``).
"""
from __future__ import annotations

from typing import Callable, Iterable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.core.pexeso import PexesoIndex
from repro.partition.cluster import jsd_kmeans

__all__ = ["assign_partitions", "distributed_search"]

_RESULT_SCHEMA = "col_id string, n_matched long, joinability double"


def assign_partitions(
    repo: DataFrame,
    k: int,
    *,
    partitioner: Callable[[dict[str, np.ndarray], int], dict[str, int]] | None = None,
    sample_per_column: int = 64,
) -> DataFrame:
    """Add a ``part_id`` column via §IV clustering on column histograms.

    Per-column vector samples (small) are collected to the driver, the
    JSD k-means of §IV runs there (its input is one histogram per
    column, not the vectors), and the assignment is joined back as a
    tiny mapping table — the idiomatic Spark shape for a cluster-then-
    route step.
    """
    partitioner = partitioner or jsd_kmeans
    sampled = (
        repo.withColumn(
            "_rn",
            F.row_number().over(Window.partitionBy("col_id").orderBy("vec_id")),
        )
        .where(F.col("_rn") <= sample_per_column)
        .select("col_id", "vec")
        .toPandas()
    )
    col_vecs = {
        cid: np.vstack(g["vec"].to_numpy())
        for cid, g in sampled.groupby("col_id")
    }
    assign = partitioner(col_vecs, k)
    spark = repo.sparkSession
    mapping = spark.createDataFrame(
        pd.DataFrame(
            {"col_id": list(assign), "part_id": [assign[c] for c in assign]}
        )
    )
    return repo.join(mapping, "col_id")


def distributed_search(
    repo_parts: DataFrame,
    Q: np.ndarray,
    tau: float,
    T: float,
    *,
    n_pivots: int = 5,
    m: int = 4,
) -> DataFrame:
    """Search every partition with its own PEXESO; return joinable columns.

    ``repo_parts`` must carry ``part_id`` (see :func:`assign_partitions`).
    Output: ``(col_id, n_matched, joinability)`` with joinability >= T.
    The query matrix rides to executors inside the UDF closure (it is
    the small side, per §II-A).
    """
    n_q = len(Q)

    def run_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        cols = pdf["col_id"].unique()
        col_index = {c: i for i, c in enumerate(cols)}
        X = np.vstack(pdf["vec"].to_numpy())
        col_of_vector = pdf["col_id"].map(col_index).to_numpy()
        engine = PexesoIndex(
            X, col_of_vector, len(cols), n_pivots=n_pivots, m=m
        )
        res = engine.search(Q, tau, T)
        hit = sorted(res.joinable)
        return pd.DataFrame(
            {
                "col_id": [cols[i] for i in hit],
                "n_matched": [int(res.match_counts[i]) for i in hit],
                "joinability": [res.match_counts[i] / n_q for i in hit],
            }
        )

    return (
        repo_parts.groupBy("part_id")
        .applyInPandas(run_partition, schema=_RESULT_SCHEMA)
        .where(F.col("joinability") >= F.lit(float(T)) - F.lit(1e-12))
    )
