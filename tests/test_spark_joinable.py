"""Tests for the distributed (§IV-on-Spark) joinable search."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.baselines import exact_scan
from repro.core.pexeso import t_abs
from repro.lake.generator import lake_to_spark
from repro.partition.cluster import random_partition
from repro.spark.joinable import assign_partitions, distributed_search


@pytest.fixture(scope="module")
def repo_parts(spark, tiny_lake):
    df = assign_partitions(lake_to_spark(spark, tiny_lake), 4)
    df.cache().count()
    return df


def test_assign_partitions_covers_all_columns(repo_parts, tiny_lake):
    rows = repo_parts.select("col_id", "part_id").distinct().collect()
    assert len(rows) == len(tiny_lake.columns)  # one partition per column
    assert {r["part_id"] for r in rows} <= set(range(4))


def test_assign_partitions_custom_partitioner(spark, tiny_lake):
    df = assign_partitions(
        lake_to_spark(spark, tiny_lake), 3, partitioner=random_partition
    )
    n_parts = df.select("part_id").distinct().count()
    assert 1 <= n_parts <= 3


@pytest.mark.parametrize("tau,T", [(0.3, 0.3), (0.5, 0.5)])
def test_distributed_equals_single_node(repo_parts, tiny_lake, tau, T):
    """The Spark path must return exactly the brute-force joinable set."""
    got = {
        r["col_id"]
        for r in distributed_search(
            repo_parts, tiny_lake.query_vectors, tau, T, n_pivots=3, m=3
        ).collect()
    }
    X, ids = tiny_lake.all_vectors()
    uniq = sorted(set(ids))
    idx_of = {c: i for i, c in enumerate(uniq)}
    col_idx = np.array([idx_of[c] for c in ids])
    Ta = t_abs(T, len(tiny_lake.query))
    truth_idx = exact_scan.joinable_columns(
        tiny_lake.query_vectors, X, col_idx, len(uniq), tau, Ta
    )
    assert got == {uniq[i] for i in truth_idx}


def test_joinability_threshold_enforced(repo_parts, tiny_lake):
    out = distributed_search(repo_parts, tiny_lake.query_vectors, 0.4, 0.5, m=3)
    assert out.where(F.col("joinability") < 0.5 - 1e-9).count() == 0
