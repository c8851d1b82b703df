"""Tests for RR-set generation: kernels, uniform sampling, indexing, Spark."""
import pickle

import numpy as np
import pandas as pd
import pytest

import pyspark.sql.functions as F

from repro.graphs.csr import build_csr
from repro.graphs.generators import powerlaw_edges
from repro.influence.evaluate import singleton_spreads
from repro.baselines.tim import rr_width
from repro.influence import rrset
from repro.influence.rrset import (
    RRCollection,
    from_memberships,
    generate_rr_collection,
    generate_rr_local,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def small_csr():
    n = 80
    src, dst = powerlaw_edges(n, 400, seed=21)
    g = np.random.default_rng(21)
    probs = g.uniform(0.02, 0.35, size=(3, len(src)))
    return build_csr(n, src, dst, probs, h=3, shared_probs=False)


@pytest.fixture(scope="module")
def wc_csr():
    n = 80
    src, dst = powerlaw_edges(n, 400, seed=22)
    indeg = np.bincount(dst, minlength=n)
    probs = (1.0 / indeg[dst])[None, :]
    return build_csr(n, src, dst, probs, h=3, shared_probs=True)


CPE = np.array([1.0, 1.5, 2.0])


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_every_rr_contains_its_root_count(small_csr, kernel):
    rr = generate_rr_local(small_csr, CPE, 2000, seed=1, kernel=kernel)
    # Every task produced at least one member row (the root).
    assert rr.exploded["rr_id"].nunique() == 2000
    # Membership rows carry the rr's advertiser.
    adv_by_rr = rr.exploded.groupby("rr_id")["adv"].nunique()
    assert (adv_by_rr == 1).all()


def test_advertiser_sampling_proportional_to_cpe(small_csr):
    """§4.2 step 1: P(adv = i) ∝ cpe(i)."""
    rr = generate_rr_local(small_csr, CPE, 30000, seed=2)
    frac = np.bincount(rr.rr_adv, minlength=3) / rr.n_rr
    expect = CPE / CPE.sum()
    assert np.allclose(frac, expect, atol=0.02)


def test_determinism(small_csr):
    a = generate_rr_local(small_csr, CPE, 500, seed=3)
    b = generate_rr_local(small_csr, CPE, 500, seed=3)
    pd.testing.assert_frame_equal(a.exploded, b.exploded)


def test_seeds_differ(small_csr):
    a = generate_rr_local(small_csr, CPE, 500, seed=3)
    b = generate_rr_local(small_csr, CPE, 500, seed=4)
    assert not a.exploded.equals(b.exploded)


def test_inverted_index_consistency(small_csr):
    rr = generate_rr_local(small_csr, CPE, 1000, seed=5)
    ex = rr.exploded
    for adv in range(3):
        for node in range(0, 80, 7):
            expect = set(
                ex[(ex["adv"] == adv) & (ex["node"] == node)]["rr_id"].tolist()
            )
            got = set(rr.rr_ids_for(node, adv).tolist())
            assert got == expect


def test_singleton_cover_counts_vs_duckdb(spark, small_csr):
    """The (adv, node) coverage counts equal a SQL group-by in DuckDB."""
    rr = generate_rr_local(small_csr, CPE, 1000, seed=6)
    sdf = spark.createDataFrame(rr.exploded)
    got = sdf.groupBy("adv", "node").agg(F.count("*").alias("cnt"))
    assert_equivalent(
        got,
        "SELECT adv, node, COUNT(*) AS cnt FROM ex GROUP BY adv, node",
        ex=rr.exploded,
    )
    counts = rr.singleton_cover_counts()
    pdf = got.toPandas()
    for _, row in pdf.iterrows():
        assert counts[int(row["adv"]), int(row["node"])] == row["cnt"]


def test_merge(small_csr):
    a = generate_rr_local(small_csr, CPE, 400, seed=7)
    b = generate_rr_local(small_csr, CPE, 600, seed=8)
    m = a.merge(b)
    assert m.n_rr == 1000
    assert np.array_equal(m.rr_adv[:400], a.rr_adv)
    assert np.array_equal(m.rr_adv[400:], b.rr_adv)
    assert np.array_equal(
        m.singleton_cover_counts(),
        a.singleton_cover_counts() + b.singleton_cover_counts(),
    )


@pytest.mark.parametrize("fixture", ["small_csr", "wc_csr"])
def test_subsim_matches_standard_distribution(request, fixture):
    """Both kernels sample the same RR-set distribution (Appendix D.2)."""
    csr = request.getfixturevalue(fixture)
    n_rr = 30000
    std = generate_rr_local(csr, CPE, n_rr, seed=9, kernel="standard")
    sub = generate_rr_local(csr, CPE, n_rr, seed=10, kernel="subsim")
    # Mean RR-set size and mean singleton spreads agree within noise.
    size_std = len(std.exploded) / n_rr
    size_sub = len(sub.exploded) / n_rr
    assert abs(size_std - size_sub) / size_std < 0.05
    s1, s2 = singleton_spreads(std), singleton_spreads(sub)
    assert np.abs(s1 - s2).max() / s1.max() < 0.1


LAYOUT = ("rr_adv", "rr_ptr", "members", "key_ptr", "rr_ids")


def assert_same_collection(a, b):
    assert a.n_rr == b.n_rr
    for name in LAYOUT:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), name)


N_EXACT = 5000


@pytest.fixture(scope="module")
def local_rr(small_csr):
    return {
        k: generate_rr_local(small_csr, CPE, N_EXACT, seed=12, kernel=k)
        for k in ("standard", "subsim")
    }


BATCH = "spark.sql.execution.arrow.maxRecordsPerBatch"
ARROW = "spark.sql.execution.arrow.pyspark.enabled"
# (num_partitions, session settings): every Arrow batch size at every
# partition count, and a session with the pandas Arrow flag off.
SESSIONS = [
    pytest.param(p, {BATCH: str(b)}, id=f"{p}-{b}")
    for p in (1, 3, 8)
    for b in (1, 10000)
] + [pytest.param(3, {ARROW: "false"}, id="3-arrow_off")]


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
@pytest.mark.parametrize("num_partitions,conf", SESSIONS)
def test_spark_generation_equals_local(
    spark, small_csr, local_rr, kernel, num_partitions, conf
):
    """RR set k depends on (graph, cpe, kernel, seed, k) only: no partition
    count, Arrow batch size or Arrow session flag changes the collection."""
    old = {key: spark.conf.get(key) for key in conf}
    for key, value in conf.items():
        spark.conf.set(key, value)
    try:
        dist = generate_rr_collection(
            spark, small_csr, CPE, N_EXACT, seed=12, kernel=kernel,
            num_partitions=num_partitions,
        )
    finally:
        for key, value in old.items():
            spark.conf.set(key, value)
    assert_same_collection(dist, local_rr[kernel])


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
@pytest.mark.parametrize(
    "n_rr", [0, rrset._CHUNK, rrset._CHUNK + 1], ids=["empty", "chunk", "chunk+1"]
)
def test_spark_transport_edges_equal_local(spark, small_csr, kernel, n_rr):
    """No set (no Arrow batch comes back) and one set either side of a task
    boundary: the per-set rows rebuild the driver's collection."""
    dist = generate_rr_collection(spark, small_csr, CPE, n_rr, seed=15, kernel=kernel)
    local = generate_rr_local(small_csr, CPE, n_rr, seed=15, kernel=kernel)
    assert_same_collection(dist, local)
    assert dist.n_rr == len(dist.rr_adv) == n_rr
    assert dist.rr_ptr[-1] == len(dist.members) == len(dist.rr_ids)
    assert dist.key_ptr.shape == (small_csr.h * small_csr.n + 1,)
    for name in LAYOUT:
        assert getattr(dist, name).dtype == np.int64, name


def test_subsim_aux_built_only_for_subsim(spark):
    """The SUBSIM sorted slices are built when the SUBSIM kernel first runs,
    on the driver before a Spark call broadcasts the graph, so a graph only
    the standard kernel samples is broadcast without them."""
    n = 80
    src, dst = powerlaw_edges(n, 400, seed=23)
    probs = np.random.default_rng(23).uniform(0.02, 0.35, size=(3, len(src)))
    csr = build_csr(n, src, dst, probs, h=3, shared_probs=False)
    generate_rr_local(csr, CPE, 500, seed=3)
    generate_rr_collection(spark, csr, CPE, 500, seed=3)
    assert "subsim_aux" not in vars(csr)
    standard_bytes = len(pickle.dumps(csr))
    generate_rr_collection(spark, csr, CPE, 500, seed=3, kernel="subsim")
    assert "subsim_aux" in vars(csr)
    assert len(pickle.dumps(csr)) > standard_bytes


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_generation_is_prefix_closed(small_csr, local_rr, kernel):
    """gen(n₁, s) is the first n₁ sets of gen(n₂, s)."""
    full = local_rr[kernel]
    part = generate_rr_local(small_csr, CPE, N_EXACT // 2, seed=12, kernel=kernel)
    ids = np.arange(part.n_rr)
    prefix = RRCollection.from_sets(
        full.n, full.h, CPE, full.rr_adv[ids],
        np.diff(full.rr_ptr[: part.n_rr + 1]), full.members_of(ids),
    )
    assert_same_collection(part, prefix)


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_uneven_split_equals_one_call(small_csr, local_rr, monkeypatch, kernel):
    """Sets first..stop-1 generated alone, in chunks of any size, are those
    sets of one call: merging uneven ranges gives the whole collection."""
    monkeypatch.setattr(rrset, "_CHUNK", 333)
    cuts = [0, 1, 17, 1000, 1001, 4097, N_EXACT]
    parts = [
        generate_rr_local(small_csr, CPE, hi - lo, seed=12, kernel=kernel, first=lo)
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merge(part)
    assert_same_collection(merged, local_rr[kernel])


def test_counter_draws_are_uniform_and_independent():
    """The counter draws behind every coin: uniform on [0, 1) (binned χ²)
    and uncorrelated at adjacent set ids, adjacent slots and adjacent seeds.
    Margins are 5 standard deviations at this sample size."""
    n_sets, n_slots = 4000, 64
    coins = rrset._COIN + np.arange(n_slots - 2)
    slots = np.concatenate([[rrset._ADV, rrset._ROOT], coins]).astype(np.int64)

    def draws(seed):
        keys = np.repeat(rrset._set_keys(seed, 0, n_sets), n_slots)
        return rrset._uniform(keys, np.tile(slots, n_sets)).reshape(n_sets, n_slots)

    u = draws(5)
    assert u.shape == (n_sets, n_slots)
    assert u.min() >= 0.0 and u.max() < 1.0
    bins = 100
    counts = np.bincount((u.ravel() * bins).astype(np.int64), minlength=bins)
    expect = u.size / bins
    chi2 = ((counts - expect) ** 2 / expect).sum()
    assert chi2 < bins - 1 + 5 * np.sqrt(2 * (bins - 1)), chi2
    pairs = {
        "adjacent set ids": (u[:-1], u[1:]),
        "adjacent slots": (u[:, :-1], u[:, 1:]),
        "adjacent seeds": (u, draws(6)),
    }
    for name, (a, b) in pairs.items():
        r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(r) < 5 / np.sqrt(a.size), (name, r)


def test_from_memberships():
    rr = from_memberships(5, 2, [1.0, 1.0], [(0, {0, 1}), (1, {2}), (0, {1})])
    assert rr.n_rr == 3
    assert set(rr.rr_ids_for(1, 0).tolist()) == {0, 2}
    assert set(rr.rr_ids_for(2, 1).tolist()) == {1}
    assert rr.rr_ids_for(2, 0).size == 0
    assert rr.factor == pytest.approx(5 * 2.0 / 3)


def test_isolated_node_rr_is_singleton():
    """A node with no in-edges yields an RR set of exactly itself."""
    src = np.array([0], dtype=np.int64)
    dst = np.array([1], dtype=np.int64)
    csr = build_csr(3, src, dst, np.array([[1.0]]), h=1, shared_probs=True)
    rr = generate_rr_local(csr, [1.0], 500, seed=13)
    ex = rr.exploded
    roots2 = ex.groupby("rr_id")["node"].apply(set)
    for nodes in roots2:
        assert nodes in ({0}, {2}, {0, 1})  # node1's RR always pulls node0 (p=1)


# ---------------------------------------------------------------------------
# CSR layouts: RR-major (rr_ptr, members) and key-major (key_ptr, rr_ids)
# ---------------------------------------------------------------------------


def _layouts(rr):
    return {
        name: getattr(rr, name)
        for name in ("rr_adv", "rr_ptr", "members", "key_ptr", "rr_ids")
    }


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_merge_equals_indexing_concatenated_rows(small_csr, kernel):
    a = generate_rr_local(small_csr, CPE, 700, seed=31, kernel=kernel)
    b = generate_rr_local(small_csr, CPE, 500, seed=32, kernel=kernel)
    ea, eb = a.exploded, b.exploded
    rebuilt = RRCollection.from_sets(
        a.n, a.h, CPE,
        np.concatenate([a.rr_adv, b.rr_adv]),
        np.concatenate([np.diff(a.rr_ptr), np.diff(b.rr_ptr)]),
        np.concatenate([a.members, b.members]),
    )
    merged = a.merge(b)
    assert merged.n_rr == rebuilt.n_rr == 1200
    for name, arr in _layouts(rebuilt).items():
        assert np.array_equal(_layouts(merged)[name], arr), name
    pd.testing.assert_frame_equal(
        merged.exploded, pd.concat([ea, eb.assign(rr_id=eb["rr_id"] + 700)], ignore_index=True)
    )


def test_merge_is_associative_on_layouts(small_csr):
    a, b, c = (generate_rr_local(small_csr, CPE, 300, seed=s) for s in (33, 34, 35))
    left, right = a.merge(b).merge(c), a.merge(b.merge(c))
    for name, arr in _layouts(left).items():
        assert np.array_equal(_layouts(right)[name], arr), name


def test_singleton_counts_and_width_match_exploded(small_csr):
    rr = generate_rr_local(small_csr, CPE, 1500, seed=36)
    ex = rr.exploded
    counts = np.zeros((rr.h, rr.n), dtype=np.int64)
    np.add.at(counts, (ex["adv"].to_numpy(), ex["node"].to_numpy()), 1)
    assert np.array_equal(rr.singleton_cover_counts(), counts)
    indeg = np.diff(small_csr.in_indptr)
    width = ex.assign(w=indeg[ex["node"].to_numpy()]).groupby("rr_id")["w"].sum()
    assert np.array_equal(rr_width(rr, small_csr), width.reindex(range(rr.n_rr)).to_numpy())


def test_key_major_slices_are_sorted_rr_ids(small_csr):
    rr = generate_rr_local(small_csr, CPE, 800, seed=37)
    ex = rr.exploded
    for (adv, node), grp in ex.groupby(["adv", "node"]):
        got = rr.rr_ids_for(int(node), int(adv))
        assert got.tolist() == sorted(grp["rr_id"].tolist())


def test_rr_ids_for_absent_key_is_empty():
    rr = from_memberships(6, 2, [1.0, 2.0], [(0, {0, 1}), (1, {1})])
    for node, adv in ((5, 0), (0, 1), (5, 1)):
        got = rr.rr_ids_for(node, adv)
        assert isinstance(got, np.ndarray) and got.size == 0


# ---------------------------------------------------------------------------
# Exact RR-set distribution on tiny graphs
# ---------------------------------------------------------------------------

# Node 2 has in-degree 5; 0 ⇄ 1 is a 2-cycle; 2 → 3 has p = 1 and 3 → 4
# has p = 0 for both advertisers. Advertiser 0 ties three of node 2's
# in-edges at 0.2 (the SUBSIM skipping loop with thinning); advertiser 1
# expects more than four hits on node 2's slice (SUBSIM's standard-draw
# path) and ties the 2-cycle.
TINY_SRC = np.array([0, 1, 0, 1, 3, 4, 5, 2, 3, 4, 5])
TINY_DST = np.array([1, 0, 2, 2, 2, 2, 2, 3, 4, 5, 1])
TINY_TIC = np.array([
    [0.3, 0.5, 0.2, 0.6, 0.2, 0.2, 0.1, 1.0, 0.0, 0.45, 0.3],
    [0.7, 0.7, 0.9, 0.9, 0.8, 0.85, 0.95, 1.0, 0.0, 0.25, 0.05],
])


def _exact_membership(n, probs):
    """P(u ∈ RR | adv, root) as an (h, root, u) array: the probability that
    root is reachable from u in a live-edge world of adv."""
    from repro.influence.spread import live_edge_worlds, reached

    out = np.zeros((len(probs), n, n))
    for adv, row in enumerate(probs):
        for p_world, adj in live_edge_worlds(TINY_SRC, TINY_DST, row):
            for u in range(n):
                for root in reached(adj, [u]):
                    out[adv, root, u] += p_world
    return np.clip(out, 0.0, 1.0)


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
@pytest.mark.parametrize("model", ["tic", "wc"])
def test_membership_matches_exact_reverse_reachability(kernel, model):
    """Every (advertiser, root, node) membership frequency equals the exact
    reverse-reachability probability, within 5 standard errors of its own
    sample size (exactly, where the probability is 0 or 1)."""
    n, h = 6, 2
    if model == "tic":
        probs, shared = TINY_TIC, False
    else:
        indeg = np.bincount(TINY_DST, minlength=n)
        probs, shared = (1.0 / indeg[TINY_DST])[None, :], True
    csr = build_csr(n, TINY_SRC, TINY_DST, probs, h=h, shared_probs=shared)
    exact = _exact_membership(n, probs if not shared else np.repeat(probs, h, 0))

    rr = generate_rr_local(csr, [1.0, 1.0], 60_000, seed=14, kernel=kernel)
    roots = rr.members[rr.rr_ptr[:-1]]
    n_sets = np.zeros((h, n))
    np.add.at(n_sets, (rr.rr_adv, roots), 1)
    rr_of = rr.rr_of_members()
    hits = np.zeros((h, n, n))
    np.add.at(hits, (rr.rr_adv[rr_of], roots[rr_of], rr.members), 1)
    freq = hits / n_sets[:, :, None]
    margin = 5 * np.sqrt(exact * (1 - exact) / n_sets[:, :, None])
    assert n_sets.min() > 4000
    assert np.all(np.abs(freq - exact) <= margin + 1e-12), np.abs(freq - exact).max()
