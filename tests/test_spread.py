"""Exact spread enumeration, and the RR singleton estimate checked against it."""
import numpy as np
import pytest

from repro.graphs.csr import build_csr
from repro.influence.evaluate import singleton_spreads
from repro.influence.rrset import generate_rr_local
from repro.influence.spread import exact_spread_enum

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
