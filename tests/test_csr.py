"""Tests for the CSR in-adjacency layout and SUBSIM auxiliaries."""
import numpy as np
import pytest

from repro.graphs.csr import build_csr
from repro.graphs.generators import powerlaw_edges


def _ref_in_neighbors(src, dst, v):
    return sorted(src[dst == v].tolist())


@pytest.mark.parametrize("seed", range(5))
def test_csr_matches_edge_list(seed):
    n = 40
    src, dst = powerlaw_edges(n, 200, seed=seed)
    g = np.random.default_rng(seed)
    probs = g.uniform(0.05, 0.5, size=(2, len(src)))
    csr = build_csr(n, src, dst, probs, h=2, shared_probs=False)
    for v in range(n):
        lo, hi = csr.in_indptr[v], csr.in_indptr[v + 1]
        assert sorted(csr.in_indices[lo:hi].tolist()) == _ref_in_neighbors(src, dst, v)


@pytest.mark.parametrize("seed", range(3))
def test_probs_aligned(seed):
    """Each (in-edge, prob) pair survives the CSR permutation intact."""
    n = 30
    src, dst = powerlaw_edges(n, 150, seed=seed)
    g = np.random.default_rng(seed + 10)
    probs = g.uniform(0.01, 0.9, size=(3, len(src)))
    csr = build_csr(n, src, dst, probs, h=3, shared_probs=False)
    ref = {}
    for e in range(len(src)):
        ref[(int(src[e]), int(dst[e]))] = probs[:, e]
    for v in range(n):
        for k in range(csr.in_indptr[v], csr.in_indptr[v + 1]):
            u = int(csr.in_indices[k])
            assert np.allclose(csr.in_probs[:, k], ref[(u, v)])


@pytest.mark.parametrize("seed", range(3))
def test_sorted_aux(seed):
    """SUBSIM aux: per-node slices sorted desc, same (index, prob) multiset."""
    n = 30
    src, dst = powerlaw_edges(n, 150, seed=seed)
    g = np.random.default_rng(seed + 20)
    probs = g.uniform(0.01, 0.9, size=(1, len(src)))
    csr = build_csr(n, src, dst, probs, h=1, shared_probs=True)
    for v in range(n):
        lo, hi = csr.in_indptr[v], csr.in_indptr[v + 1]
        if hi == lo:
            continue
        sl = csr.in_probs_sorted[0, lo:hi]
        assert np.all(np.diff(sl) <= 1e-15)
        pairs = sorted(zip(csr.in_probs[0, lo:hi], csr.in_indices[lo:hi]))
        pairs_sorted = sorted(zip(sl, csr.in_indices_sorted[0, lo:hi]))
        assert np.allclose([p for p, _ in pairs], [p for p, _ in pairs_sorted])


def _ref_subsim_aux(n, csr):
    """The per-node loop the vectorised SUBSIM auxiliaries replace."""
    rows, m = csr.in_probs.shape
    probs_sorted = np.empty_like(csr.in_probs)
    indices_sorted = np.empty((rows, m), dtype=np.int64)
    for r in range(rows):
        for v in range(n):
            lo, hi = csr.in_indptr[v], csr.in_indptr[v + 1]
            sl = csr.in_probs[r, lo:hi]
            order = np.argsort(-sl, kind="stable")
            probs_sorted[r, lo:hi] = sl[order]
            indices_sorted[r, lo:hi] = csr.in_indices[lo:hi][order]
    return probs_sorted, indices_sorted


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shared", [False, True])
def test_subsim_aux_equals_reference_loop(seed, shared):
    """Bit-identical to a per-node stable argsort, ties and empty slices
    included (probabilities from a 4-value grid make ties common)."""
    n = 60
    src, dst = powerlaw_edges(n, 300, seed=seed)
    g = np.random.default_rng(seed)
    h = 3
    probs = g.choice([0.0, 0.1, 0.25, 1.0], size=(1 if shared else h, len(src)))
    csr = build_csr(n, src, dst, probs, h=h, shared_probs=shared)
    assert (np.diff(csr.in_indptr) == 0).any()
    ps, ix = _ref_subsim_aux(n, csr)
    np.testing.assert_array_equal(csr.in_probs_sorted, ps)
    np.testing.assert_array_equal(csr.in_indices_sorted, ix)


@pytest.mark.parametrize("shared", [False, True])
def test_in_probs_is_c_contiguous(shared):
    """The RR kernels gather ``in_probs.ravel()[row * m + e]``; a ravel of a
    C-ordered array is a view, not a copy."""
    n, h = 30, 3
    src, dst = powerlaw_edges(n, 120, seed=7)
    probs = np.random.default_rng(7).uniform(0.0, 0.5, size=(1 if shared else h, len(src)))
    csr = build_csr(n, src, dst, probs, h=h, shared_probs=shared)
    assert csr.in_probs.flags["C_CONTIGUOUS"]
    assert np.shares_memory(csr.in_probs.ravel(), csr.in_probs)
