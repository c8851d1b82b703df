"""Exact spread enumeration, and the RR estimates checked against it."""
import numpy as np
import pytest

from repro.graphs.csr import build_csr
from repro.influence.evaluate import evaluate_revenue, singleton_spreads
from repro.influence.rrset import generate_rr_local
from tests.spread import exact_spread_enum

from tests.test_rrset import TINY_DST, TINY_SRC, TINY_TIC

# Three tiny topologies: a path with branch, a cycle, a DAG diamond.
TINY = [
    (5, [0, 0, 1, 2, 3], [1, 2, 3, 3, 4]),
    (4, [0, 1, 2, 3], [1, 2, 3, 0]),
    (4, [0, 0, 1, 2], [1, 2, 3, 3]),
]


def _csr_for(n, src, dst, probs):
    return build_csr(
        n,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        probs[None, :],
    )


@pytest.mark.parametrize("n,src,dst", TINY)
@pytest.mark.parametrize("seed", range(2))
def test_exact_vs_rr_singleton(n, src, dst, seed):
    """Lemma 4.1 specialised: RR singleton estimate → exact spread."""
    g = np.random.default_rng(seed + 50)
    probs = g.uniform(0.1, 0.9, size=len(src))
    csr = _csr_for(n, src, dst, probs)
    rr = generate_rr_local(csr, [1.0], 150000, seed=seed)
    sig = singleton_spreads(rr)
    for v in range(n):
        exact = exact_spread_enum(n, np.asarray(src), np.asarray(dst), probs, [v])
        assert sig[0, v] == pytest.approx(max(exact, 1.0), rel=0.04)


def test_exact_multiseed_superset_bound():
    """σ({0,1}) ≥ max(σ({0}), σ({1})) and ≤ σ({0})+σ({1}) (monotone, subadd)."""
    n, src, dst = TINY[0]
    probs = np.full(len(src), 0.5)
    s0 = exact_spread_enum(n, np.asarray(src), np.asarray(dst), probs, [0])
    s1 = exact_spread_enum(n, np.asarray(src), np.asarray(dst), probs, [1])
    s01 = exact_spread_enum(n, np.asarray(src), np.asarray(dst), probs, [0, 1])
    assert s01 >= max(s0, s1) - 1e-12
    assert s01 <= s0 + s1 + 1e-12


def test_exact_empty_and_deterministic_edges():
    n, src, dst = 3, np.array([0, 1]), np.array([1, 2])
    assert exact_spread_enum(n, src, dst, np.array([1.0, 1.0]), [0]) == 3.0
    assert exact_spread_enum(n, src, dst, np.array([0.0, 0.0]), [0]) == 1.0
    assert exact_spread_enum(n, src, dst, np.array([1.0, 1.0]), []) == 0.0


# Disjoint multi-node seed sets on the 6-node TIC graph; advertiser 1's
# empty set in the second allocation has revenue exactly 0.
LEMMA41_ALLOCATIONS = [
    [{0, 3}, {1, 4}],
    [{2, 5}, set()],
    [{0, 1, 4}, {2, 3}],
    [{3, 4, 5}, {0, 2}],
]


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_lemma41_revenue_matches_exact_spread(kernel):
    """Lemma 4.1 with h = 2, a probability row per advertiser and unequal
    cpe: each advertiser's π̃_i(S_i) lies within 5 standard errors of
    cpe_i·σ_i(S_i) by exact enumeration. A set is advertiser i's and covered
    by S_i with p = cpe_i·σ_i/(nΓ), so π̃_i = nΓ·(covered share) has standard
    error nΓ·√(p(1−p)/N); where p is 0 the estimate is exact."""
    n, cpe, n_rr = 6, np.array([1.0, 2.5]), 200_000
    csr = build_csr(n, TINY_SRC, TINY_DST, TINY_TIC)
    rr = generate_rr_local(csr, cpe, n_rr, seed=5, kernel=kernel)
    n_gamma = n * cpe.sum()
    for alloc in LEMMA41_ALLOCATIONS:
        _, per = evaluate_revenue(rr, alloc)
        for i, seeds in enumerate(alloc):
            exact = cpe[i] * exact_spread_enum(n, TINY_SRC, TINY_DST, TINY_TIC[i], seeds)
            p = exact / n_gamma
            margin = 5 * n_gamma * np.sqrt(p * (1 - p) / n_rr)
            assert abs(per[i] - exact) <= margin + 1e-9, (alloc, i, per[i], exact)
