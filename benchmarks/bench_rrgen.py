"""Benchmark: RR-set generation kernels (standard vs SUBSIM).

The kernel-level comparison behind Table 6: SUBSIM's subset sampling does
O(E[#selected]) work per node instead of O(indeg), which shows most clearly
on the Weighted-Cascade graphs with heavy-tailed in-degrees. Two cases
replay the generation calls of one harness cell: the TI-shaped case the
call mix of a TI-CARM/TI-CSRM run on ``lastfm_lite`` (many small
per-advertiser generations), the RMA-shaped case the R₁/R₂ calls of an RMA
run on the ``flixster_lite`` preset itself (few large uniform-sampling
generations).

    pytest benchmarks/bench_rrgen.py --benchmark-only -k calls
"""
import numpy as np
import pytest

from repro.experiments.instances import PRESETS, _graph_and_probs
from repro.graphs.csr import build_csr
from repro.graphs.generators import powerlaw_edges
from repro.graphs.tic import ad_mixtures, tic_probs, tic_topic_entries
from repro.influence.rrset import generate_rr_local


@pytest.fixture(scope="module")
def wc_graph():
    n = 4000
    src, dst = powerlaw_edges(n, 60000, seed=61)
    indeg = np.bincount(dst, minlength=n)
    probs = (1.0 / indeg[dst])[None, :]
    return build_csr(n, src, dst, probs)


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
    return build_csr(n, src, dst, probs)


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_rrgen_tic(benchmark, tic_graph, kernel):
    rr = benchmark.pedantic(
        lambda: generate_rr_local(tic_graph, [1.0], 20000, seed=64, kernel=kernel),
        rounds=2, iterations=1,
    )
    assert rr.n_rr == 20000


@pytest.fixture(scope="module")
def lastfm_tic_graph():
    """A lastfm_lite-sized TIC graph (10 advertisers, 10 topics):
    p^i_uv = Σ_z φ_i(z)·p̂^z_uv."""
    n, h, L = 1300, 10, 10
    src, dst = powerlaw_edges(n, 14700, seed=65)
    topics = tic_topic_entries(len(src), L, seed=66, density=0.137, p_max=0.4)
    probs = tic_probs(topics, ad_mixtures(h, L, seed=67), len(src))
    return build_csr(n, src, dst, probs)


# The generation calls of one `ti_lastfm` cell (TI-CARM then TI-CSRM on
# lastfm_lite), as (block sizes of a call, calls): 100 KptEstimation runs,
# each one request carrying all nine iterations (16-1455 sets, 2,915 in all,
# one BFS), and the 16K-set θ resamples at the TI cap. Calls go to the
# advertisers in turn, one seed per block.
_KPT_SIZES = (16, 16, 22, 45, 90, 181, 363, 727, 1455)
_TI_CALLS = [(_KPT_SIZES, 100), ((16_000,), 100)]


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_rrgen_ti_calls(benchmark, lastfm_tic_graph, kernel):
    g = lastfm_tic_graph
    h = len(g.in_probs)  # one probability row per advertiser
    requests = [sizes for sizes, calls in _TI_CALLS for _ in range(calls)]

    def ti_calls():
        sets = 0
        for i, sizes in enumerate(requests):
            onehot = np.zeros(h)
            onehot[i % h] = 1.0
            blocks = [(n_rr, len(sizes) * i + j) for j, n_rr in enumerate(sizes)]
            sets += generate_rr_local(g, onehot, blocks, kernel=kernel).n_rr
        return sets

    sets = benchmark.pedantic(ti_calls, rounds=2, iterations=1)
    assert sets == sum(map(sum, requests))


@pytest.fixture(scope="module")
def flixster_lite():
    cfg = PRESETS["flixster_lite"]
    src, dst, probs = _graph_and_probs(cfg)
    return build_csr(cfg["n"], src, dst, probs), np.asarray(cfg["cpes"])


# The generation calls of one `rma_flixster` cell (RMA on flixster_lite at
# its EXP scale, harness seed 7), as (sets, seed): R₁ and R₂ of each of its
# three rounds, every call one uniform-sampling block on the driver.
_RMA_CALLS = [
    (14_268, 7_000_022), (14_268, 7_000_023),
    (42_804, 7_000_523), (42_804, 7_000_524),
    (171_216, 7_000_525), (171_216, 7_000_526),
]


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_rrgen_rma_calls(benchmark, flixster_lite, kernel):
    csr, cpe = flixster_lite

    def rma_calls():
        return sum(
            generate_rr_local(csr, cpe, n_rr, seed=s, kernel=kernel).n_rr
            for n_rr, s in _RMA_CALLS
        )

    sets = benchmark.pedantic(rma_calls, rounds=2, iterations=1)
    assert sets == sum(n_rr for n_rr, _ in _RMA_CALLS)
