"""Benchmark: RR-set generation kernels (standard vs SUBSIM).

The kernel-level comparison behind Table 6: SUBSIM's subset sampling does
O(E[#selected]) work per node instead of O(indeg), which shows most clearly
on the Weighted-Cascade graphs with heavy-tailed in-degrees. The TI-shaped
case is the call mix of a TI-CARM/TI-CSRM run on ``lastfm_lite``: many
small per-advertiser generations.
"""
import math

import numpy as np
import pytest

from repro.graphs.csr import build_csr
from repro.graphs.generators import powerlaw_edges
from repro.graphs.tic import ad_mixtures, tic_topic_entries
from repro.influence.rrset import generate_rr_local


@pytest.fixture(scope="module")
def wc_graph():
    n = 4000
    src, dst = powerlaw_edges(n, 60000, seed=61)
    indeg = np.bincount(dst, minlength=n)
    probs = (1.0 / indeg[dst])[None, :]
    return build_csr(n, src, dst, probs, h=1, shared_probs=True)


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_rrgen_wc(benchmark, wc_graph, kernel):
    rr = benchmark.pedantic(
        lambda: generate_rr_local(wc_graph, [1.0], 20000, seed=62, kernel=kernel),
        rounds=2, iterations=1,
    )
    assert rr.n_rr == 20000


@pytest.fixture(scope="module")
def tic_graph():
    n = 1300
    src, dst = powerlaw_edges(n, 14700, seed=63)
    g = np.random.default_rng(63)
    probs = g.uniform(0.0, 0.15, size=(1, len(src)))
    return build_csr(n, src, dst, probs, h=1, shared_probs=True)


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_rrgen_tic(benchmark, tic_graph, kernel):
    rr = benchmark.pedantic(
        lambda: generate_rr_local(tic_graph, [1.0], 20000, seed=64, kernel=kernel),
        rounds=2, iterations=1,
    )
    assert rr.n_rr == 20000


@pytest.fixture(scope="module")
def lastfm_tic_graph():
    """A lastfm_lite-sized TIC graph (10 advertisers, 10 topics), mixed in
    numpy: p^i_uv = Σ_z φ_i(z)·p̂^z_uv."""
    n, h, L = 1300, 10, 10
    src, dst = powerlaw_edges(n, 14700, seed=65)
    topics = tic_topic_entries(len(src), L, seed=66, density=0.137, p_max=0.4)
    p_hat = np.zeros((L, len(src)))
    p_hat[topics["topic"], topics["edge_id"]] = topics["p_hat"]
    probs = ad_mixtures(h, L, seed=67) @ p_hat
    return build_csr(n, src, dst, probs, h=h, shared_probs=False)


# Per advertiser: the KptEstimation sizes c_i at lastfm_lite's sample_scale
# (0.05; 16 to 727 sets), then one θ-sized resample at the TI cap.
_KPT_SIZES = [
    max(16, int(0.05 * (6 * math.log(1300) + 6 * math.log(10)) * 2**i))
    for i in range(1, 9)
]
_TI_RESAMPLE = 16_000


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_rrgen_ti_calls(benchmark, lastfm_tic_graph, kernel):
    g = lastfm_tic_graph

    def ti_calls():
        sets = 0
        for adv in range(g.h):
            onehot = np.zeros(g.h)
            onehot[adv] = 1.0
            for i, n_rr in enumerate(_KPT_SIZES + [_TI_RESAMPLE]):
                sets += generate_rr_local(
                    g, onehot, n_rr, seed=100 * adv + i, kernel=kernel
                ).n_rr
        return sets

    sets = benchmark.pedantic(ti_calls, rounds=2, iterations=1)
    assert sets == g.h * (sum(_KPT_SIZES) + _TI_RESAMPLE)
