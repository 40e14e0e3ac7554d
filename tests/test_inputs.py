"""Input the engine cannot answer exactly raises instead of answering."""
import numpy as np
import pytest

from repro.core.pexeso import PexesoIndex
from tests.conftest import planted_repo


@pytest.fixture(scope="module")
def repo():
    return planted_repo(seed=0)


@pytest.fixture(scope="module")
def engine(repo):
    Q, X, col, n_cols = repo
    return PexesoIndex(X, col, n_cols, n_pivots=3, m=3)


@pytest.mark.parametrize("seed", range(5))
def test_scaled_targets_rejected(seed):
    """Rows scaled ×3 leave the [0, 2] pivot space and gave wrong sets."""
    _, X, col, n_cols = planted_repo(seed=seed)
    with pytest.raises(ValueError, match="unit norm"):
        PexesoIndex(3 * X, col, n_cols, n_pivots=3, m=3)


def test_one_non_unit_target_row_rejected(repo):
    _, X, col, n_cols = repo
    X = X.copy()
    X[7] *= 1 + 1e-5
    with pytest.raises(ValueError, match="unit norm"):
        PexesoIndex(X, col, n_cols)


def test_rounding_level_norm_error_accepted(repo):
    _, X, col, n_cols = repo
    PexesoIndex(X * (1 + 1e-9), col, n_cols, n_pivots=3, m=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_target_rejected(repo, bad):
    _, X, col, n_cols = repo
    X = X.copy()
    X[3, 2] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        PexesoIndex(X, col, n_cols)


@pytest.mark.parametrize("value", [-1, 30])
def test_column_index_out_of_range_rejected(repo, value):
    _, X, col, n_cols = repo
    col = col.copy()
    col[5] = value
    with pytest.raises(ValueError, match="col_of_vector"):
        PexesoIndex(X, col, n_cols)


def test_empty_query_rejected(engine, repo):
    with pytest.raises(ValueError, match="empty"):
        engine.search(repo[0][:0], 0.4, 0.5)


def test_scaled_query_rejected(engine, repo):
    with pytest.raises(ValueError, match="unit norm"):
        engine.search(3 * repo[0], 0.4, 0.5)


def test_non_finite_query_rejected(engine, repo):
    Q = repo[0].copy()
    Q[0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN or infinite"):
        engine.search(Q, 0.4, 0.5)


@pytest.mark.parametrize("tau", [0.0, -0.1, np.nan])
def test_non_positive_tau_rejected(engine, repo, tau):
    with pytest.raises(ValueError, match="tau"):
        engine.search(repo[0], tau, 0.5)


@pytest.mark.parametrize("T", [0.0, -0.2, 1.01, np.nan])
def test_threshold_outside_unit_interval_rejected(engine, repo, T):
    with pytest.raises(ValueError, match="T must"):
        engine.search(repo[0], 0.4, T)


def test_full_threshold_accepted(engine, repo):
    engine.search(repo[0], 0.4, 1.0)
