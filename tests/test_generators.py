"""Tests for the synthetic graph generators."""
import numpy as np
import pytest

from repro.graphs.generators import degree_stats, powerlaw_edges, symmetrize


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n,m", [(50, 200), (200, 1000), (500, 3000)])
def test_basic_invariants(seed, n, m):
    src, dst = powerlaw_edges(n, m, seed=seed)
    assert len(src) == len(dst)
    assert 0 < len(src) <= m
    assert src.min() >= 0 and src.max() < n
    assert dst.min() >= 0 and dst.max() < n
    assert not np.any(src == dst), "no self-loops"
    key = src.astype(np.int64) * n + dst.astype(np.int64)
    assert len(np.unique(key)) == len(key), "no duplicate edges"


@pytest.mark.parametrize("seed", range(3))
def test_deterministic(seed):
    a = powerlaw_edges(100, 500, seed=seed)
    b = powerlaw_edges(100, 500, seed=seed)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_different_seeds_differ():
    a = powerlaw_edges(100, 500, seed=0)
    b = powerlaw_edges(100, 500, seed=1)
    assert not (np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))


@pytest.mark.parametrize("seed", range(3))
def test_heavy_tail(seed):
    """Zipf-rank endpoints produce hubs well above the mean degree."""
    n, m = 500, 4000
    src, dst = powerlaw_edges(n, m, seed=seed)
    stats = degree_stats(src, dst, n)
    assert stats["max_out_deg"] > 5 * stats["mean_deg"]
    assert stats["max_in_deg"] > 5 * stats["mean_deg"]


def test_symmetrize():
    src = np.array([0, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 0], dtype=np.int64)
    s, d = symmetrize(src, dst)
    pairs = set(zip(s.tolist(), d.tolist()))
    assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)}


def test_symmetrize_dedupes_reciprocal():
    src = np.array([0, 1], dtype=np.int64)
    dst = np.array([1, 0], dtype=np.int64)
    s, d = symmetrize(src, dst)
    assert len(s) == 2
