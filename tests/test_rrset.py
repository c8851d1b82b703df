"""Tests for RR-set generation: kernels, uniform sampling, indexing, Spark."""
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

import pyspark.sql.functions as F

from repro.graphs.csr import build_csr
from repro.graphs.generators import powerlaw_edges
from repro.baselines import ti_carm
from repro.baselines.ti_carm import ti_rm
from repro.baselines.tim import rr_width
from repro.core.rma import rm_without_oracle
from repro.experiments.instances import build_instance
from repro.experiments.tables import EXP
from repro.influence.evaluate import singleton_spreads
from repro.influence import rrset
from repro.influence.rrset import (
    RRCollection,
    from_memberships,
    generate_rr_collection,
    generate_rr_local,
)
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def small_csr():
    n = 80
    src, dst = powerlaw_edges(n, 400, seed=21)
    g = np.random.default_rng(21)
    probs = g.uniform(0.02, 0.35, size=(3, len(src)))
    return build_csr(n, src, dst, probs)


@pytest.fixture(scope="module")
def wc_csr():
    n = 80
    src, dst = powerlaw_edges(n, 400, seed=22)
    indeg = np.bincount(dst, minlength=n)
    probs = (1.0 / indeg[dst])[None, :]
    return build_csr(n, src, dst, probs)


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


def assert_layout_dtypes(rr):
    """int32 ids and offsets; advertisers in the smallest unsigned dtype
    holding h (uint8 up to h = 256, uint16 above)."""
    adv = np.uint8 if rr.h <= 256 else np.uint16
    want = dict(rr_adv=adv, rr_ptr=np.int32, members=np.int32,
                key_ptr=np.int32, rr_ids=np.int32)
    assert {name: getattr(rr, name).dtype for name in LAYOUT} == want


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
# partition count, and a session with the pandas Arrow flag off. The
# fan-out runs no Spark SQL query, so none of them may change the sample.
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
    """No set (no chunk runs) and one set either side of a chunk boundary:
    the per-chunk buffers rebuild the driver's collection."""
    dist = generate_rr_collection(spark, small_csr, CPE, n_rr, seed=15, kernel=kernel)
    local = generate_rr_local(small_csr, CPE, n_rr, seed=15, kernel=kernel)
    assert_same_collection(dist, local)
    assert dist.n_rr == len(dist.rr_adv) == n_rr
    assert dist.rr_ptr[-1] == len(dist.members) == len(dist.rr_ids)
    assert dist.key_ptr.shape == (len(CPE) * small_csr.n + 1,)
    for rr in (dist, local, local.merge(dist)):
        assert_layout_dtypes(rr)


def test_spark_decodes_wide_advertiser_ids(spark, wc_csr):
    """At h = 300 advertiser ids travel as uint16 bytes: on a one-row graph
    with a length-300 cpe, the collected buffers decode to the driver's
    collection, ids above 255 included."""
    cpe = np.linspace(1.0, 2.0, 300)
    n_rr = rrset._CHUNK + 1
    dist = generate_rr_collection(spark, wc_csr, cpe, n_rr, seed=19, num_partitions=2)
    local = generate_rr_local(wc_csr, cpe, n_rr, seed=19)
    assert wc_csr.in_probs.shape[0] == 1
    assert_same_collection(dist, local)
    assert dist.rr_adv.max() > 255
    assert_layout_dtypes(dist)


def test_spark_generation_runs_no_sql_query(spark, small_csr, local_rr):
    """The fan-out is a plain RDD job: a call adds no Spark SQL execution
    (a DataFrame collect adds one, checked first so the count is live), and
    still returns the driver's collection."""
    store = spark._jsparkSession.sharedState().statusStore()
    before = store.executionsCount()
    spark.range(1).toArrow()
    assert store.executionsCount() == before + 1
    dist = generate_rr_collection(spark, small_csr, CPE, N_EXACT, seed=12)
    assert store.executionsCount() == before + 1
    assert_same_collection(dist, local_rr["standard"])


def test_worker_imports_skip_pandas():
    """A Spark worker that unpickles the generation closure imports
    ``repro.influence.rrset`` (and so ``repro.graphs``) on top of
    ``pyspark.worker``; neither pulls in pandas."""
    code = "import sys, pyspark.worker, repro.influence.rrset; print('pandas' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(rrset.__file__).parents[2]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_subsim_aux_built_only_for_subsim(spark):
    """The SUBSIM sorted slices are built when the SUBSIM kernel first runs,
    on the driver before a Spark call broadcasts the graph, so a graph only
    the standard kernel samples is broadcast without them."""
    n = 80
    src, dst = powerlaw_edges(n, 400, seed=23)
    probs = np.random.default_rng(23).uniform(0.02, 0.35, size=(3, len(src)))
    csr = build_csr(n, src, dst, probs)
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
        full.n, CPE, full.rr_adv[ids],
        np.diff(full.rr_ptr[: part.n_rr + 1]), full.members_of(ids),
    )
    assert_same_collection(part, prefix)


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_uneven_split_equals_one_call(small_csr, local_rr, monkeypatch, kernel):
    """Sets lo..hi-1 simulated alone, in chunks of any size, as a Spark task
    simulates its range, are those sets of one call: merging uneven ranges
    gives the whole collection."""
    monkeypatch.setattr(rrset, "_CHUNK", 333)
    cuts = [0, 1, 17, 1000, 1001, 4097, N_EXACT]
    weights = CPE / CPE.sum()
    parts = [
        RRCollection.from_sets(
            small_csr.n, CPE,
            *rrset._rr_sets(rrset._set_keys(12, lo, hi), small_csr, weights, kernel),
        )
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merge(part)
    assert_same_collection(merged, local_rr[kernel])


# An empty block and a repeated seed among blocks of unequal sizes.
BLOCKS = [(37, 5), (0, 6), (300, 7), (37, 5), (1, 8), (950, 9)]


@pytest.mark.parametrize("chunk", [rrset._CHUNK, 64], ids=["one_bfs", "chunk64"])
@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_multi_block_request_equals_per_block_calls(
    small_csr, monkeypatch, kernel, chunk
):
    """Blocks share a BFS but no draw: a block-list request is the per-block
    collections concatenated, in one BFS or with blocks split across
    several."""
    monkeypatch.setattr(rrset, "_CHUNK", chunk)
    got = generate_rr_local(small_csr, CPE, BLOCKS, kernel=kernel)
    parts = [
        generate_rr_local(small_csr, CPE, n_rr, seed=s, kernel=kernel)
        for n_rr, s in BLOCKS
    ]
    want = RRCollection.from_sets(
        small_csr.n, CPE,
        np.concatenate([p.rr_adv for p in parts]),
        np.concatenate([np.diff(p.rr_ptr) for p in parts]),
        np.concatenate([p.members for p in parts]),
    )
    assert got.n_rr == sum(n_rr for n_rr, _ in BLOCKS)
    assert_same_collection(got, want)


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


# p and the draws N·2⁻⁵³ to test against it: the extremes, and the
# integers on either side of each threshold ⌈p·2⁵³⌉.
THRESHOLD_PROBS = [0.0, 2.0**-53, 0.1, 1 / 3, 0.4, 1 - 2.0**-53, 1.0]


@pytest.mark.parametrize("p", THRESHOLD_PROBS)
def test_integer_coin_threshold_is_the_float_draw(p):
    """A coin lands when its top 53 bits N are below ``coin_thresholds``,
    ⌈p·2⁵³⌉: exactly when the float draw N·2⁻⁵³ is below p."""
    csr = build_csr(2, np.array([0]), np.array([1]), np.array([[p]]))
    [t] = csr.coin_thresholds.tolist()
    assert csr.coin_thresholds.dtype == np.uint64
    top = 2**53 - 1
    for n in {0, top, t - 1, t, t + 1}:
        if 0 <= n <= top:
            assert (n < t) == (n * 2.0**-53 < p), (p, n, t)


def _expand_reference(fs, fv, rows, g, keys):
    """The standard kernel coin by coin: the coin of flat slot f is the
    float draw ``_uniform(key, f, _COIN)``, and it lands below p."""
    lo = g.in_indptr[fv]
    cnt = g.in_indptr[fv + 1] - lo
    flat = rrset._slice_positions(rows * g.m + lo, cnt)
    u = rrset._uniform(np.repeat(keys[fs], cnt), flat, rrset._COIN)
    hit = np.flatnonzero(u < g.in_probs.ravel()[flat])
    entry = np.repeat(np.arange(len(fs)), cnt)[hit]
    return fs[entry], g.in_indices[flat[hit] % g.m]


@pytest.mark.parametrize(
    "pass_coins", [rrset._PASS_COINS, 7, 1], ids=["one_pass", "pass7", "pass1"]
)
@pytest.mark.parametrize("fixture", ["small_csr", "wc_csr"])
def test_standard_expansion_equals_the_coin_by_coin_draw(
    request, monkeypatch, fixture, pass_coins
):
    """The folded counter arithmetic and integer thresholds give the hits of
    one float draw per coin, on per-advertiser rows and on one shared row,
    with repeated nodes, zero in-degrees and an empty frontier included, in
    one pass or in passes smaller than one entry's in-edges."""
    monkeypatch.setattr(rrset, "_PASS_COINS", pass_coins)
    g = request.getfixturevalue(fixture)
    rng = np.random.default_rng(31)
    keys = rrset._set_keys(31, 0, 50)
    for size in (0, 1, 500):
        fs = np.sort(rng.integers(0, len(keys), size))
        fv = rng.integers(0, g.n, size)
        rows = rng.integers(0, len(g.in_probs), size)
        got = rrset._expand_standard(fs, fv, rows, g, keys)
        want = _expand_reference(fs, fv, rows, g, keys)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def test_from_memberships():
    rr = from_memberships(5, [1.0, 1.0], [(0, {0, 1}), (1, {2}), (0, {1})])
    assert rr.n_rr == 3
    assert set(rr.rr_ids_for(1, 0).tolist()) == {0, 2}
    assert set(rr.rr_ids_for(2, 1).tolist()) == {1}
    assert rr.rr_ids_for(2, 0).size == 0
    assert rr.factor == pytest.approx(5 * 2.0 / 3)


def test_small_advertiser_dtype_keys_do_not_wrap():
    """At h = 10 ``rr_adv`` is uint8, and h·n = 400 000 > 2¹⁶: the key
    adv·n + node is formed in intp, not in the uint16 that a uint8 times
    n gives under value-based casting, so both key-major arrays equal an
    int64 reference."""
    h, n = 10, 40_000
    g = np.random.default_rng(3)
    memberships = [
        (int(g.integers(h)), set(g.choice(n, int(g.integers(1, 4)), replace=False).tolist()))
        for _ in range(2000)
    ] + [(h - 1, {n - 1})]
    rr = from_memberships(n, np.ones(h), memberships)
    assert rr.rr_adv.dtype == np.uint8
    rr_of = rr.rr_of_members()
    key = rr.rr_adv.astype(np.int64)[rr_of] * n + rr.members.astype(np.int64)
    key_ptr = np.zeros(h * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=h * n), out=key_ptr[1:])
    np.testing.assert_array_equal(rr.key_ptr, key_ptr)
    np.testing.assert_array_equal(rr.rr_ids, rr_of[np.argsort(key, kind="stable")])


def test_member_bound_is_checked(monkeypatch):
    """Offsets are int32: 2³¹ - 1 members fit and 2³¹ raise, checked from
    the counts (nothing of that size is allocated); indexing and merging
    check the same bound."""
    assert rrset._ptr(np.array([2**30, 2**30 - 1]))[-1] == 2**31 - 1
    with pytest.raises(OverflowError, match="int32"):
        rrset._ptr(np.array([2**30, 2**30]))
    monkeypatch.setattr(rrset, "_MAX_MEMBERS", 5)
    three = from_memberships(4, [1.0], [(0, {0, 1, 2})])
    with pytest.raises(OverflowError, match="int32"):
        three.merge(three)
    with pytest.raises(OverflowError, match="int32"):
        from_memberships(4, [1.0], [(0, {0, 1, 2}), (0, {1, 2, 3})])


def test_nbytes_counts_every_array():
    """int32 members, ids and offsets, one byte per set's advertiser; the
    key-major index counts once it is built."""
    h, n = 3, 10
    rr = from_memberships(n, [1.0, 1.0, 2.0], [(0, {0, 1}), (2, {4}), (1, {1, 5, 9})])
    n_rr, members = 3, 6
    rr_major = 8 * h + n_rr + 4 * (n_rr + 1) + 4 * members
    assert rr.nbytes == rr_major
    rr.key_ptr  # builds the index
    assert rr.nbytes == rr_major + 4 * (h * n + 1) + 4 * members


def test_isolated_node_rr_is_singleton():
    """A node with no in-edges yields an RR set of exactly itself."""
    src = np.array([0], dtype=np.int64)
    dst = np.array([1], dtype=np.int64)
    csr = build_csr(3, src, dst, np.array([[1.0]]))
    rr = generate_rr_local(csr, [1.0], 500, seed=13)
    ex = rr.exploded
    roots2 = ex.groupby("rr_id")["node"].apply(set)
    for nodes in roots2:
        assert nodes in ({0}, {2}, {0, 1})  # node1's RR always pulls node0 (p=1)


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_onehot_cpe_on_a_shared_row_graph(wc_csr, kernel):
    """The collection's h is len(cpe), not the graph's row count: a one-hot
    cpe of length h on a one-row graph indexes h advertisers, every set is
    the one-hot advertiser's, and each reads row 0, as a one-ad cpe does."""
    h, adv = 4, 2
    onehot = np.zeros(h)
    onehot[adv] = 1.5
    rr = generate_rr_local(wc_csr, onehot, 600, seed=17, kernel=kernel)
    one = generate_rr_local(wc_csr, [1.0], 600, seed=17, kernel=kernel)
    assert wc_csr.in_probs.shape[0] == 1
    assert rr.h == h
    assert rr.key_ptr.shape == (h * wc_csr.n + 1,)
    assert (rr.rr_adv == adv).all()
    assert np.array_equal(rr.rr_ptr, one.rr_ptr)
    assert np.array_equal(rr.members, one.members)


def test_merged_sizes_are_read_off_the_arrays(small_csr):
    merged = generate_rr_local(small_csr, CPE, 300, seed=41).merge(
        generate_rr_local(small_csr, CPE, 200, seed=42)
    )
    assert merged.n_rr == len(merged.rr_adv) == 500
    assert merged.h == len(CPE)
    assert len(merged.rr_ptr) == merged.n_rr + 1


def test_build_csr_rejects_probs_of_the_wrong_width():
    src, dst = np.array([0, 1]), np.array([1, 2])
    assert build_csr(3, src, dst, np.full(2, 0.5)).in_probs.shape == (1, 2)
    for probs in (np.full((2, 3), 0.5), np.full(1, 0.5)):
        with pytest.raises(ValueError, match="columns"):
            build_csr(3, src, dst, probs)


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
        a.n, CPE,
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
    rr = from_memberships(6, [1.0, 2.0], [(0, {0, 1}), (1, {1})])
    for node, adv in ((5, 0), (0, 1), (5, 1)):
        got = rr.rr_ids_for(node, adv)
        assert isinstance(got, np.ndarray) and got.size == 0


# ---------------------------------------------------------------------------
# The key-major index, built on first read
# ---------------------------------------------------------------------------


def _random_allocation(g, h, n):
    """Seed sets of 0–4 nodes each, drawn independently, so advertisers may
    share nodes and some sets are empty."""
    return [set(g.choice(n, int(g.integers(0, 5)), replace=False).tolist()) for _ in range(h)]


def _unindexed(spark, small_csr, wc_csr, h, source):
    """3000 sets for h advertisers, unindexed, made locally, on Spark or by
    merging two local collections. h = 300 stores advertisers as uint16;
    h = 1 and 300 run on a one-row graph."""
    csr = small_csr if h == 3 else wc_csr
    cpe = np.linspace(1.0, 2.0, h)
    if source == "local":
        return generate_rr_local(csr, cpe, 3000, seed=61)
    if source == "spark":
        return generate_rr_collection(spark, csr, cpe, 3000, seed=61)
    return generate_rr_local(csr, cpe, 1800, seed=61).merge(
        generate_rr_local(csr, cpe, 1200, seed=62)
    )


@pytest.mark.parametrize("source", ["local", "spark", "merged"])
@pytest.mark.parametrize("h", [1, 3, 300])
def test_covered_counts_equals_per_advertiser_counts(spark, small_csr, wc_csr, h, source):
    """The RR-major count of a whole allocation equals the index's
    ``covered_count(i, S_i)`` for every advertiser, and builds no index."""
    rr = _unindexed(spark, small_csr, wc_csr, h, source)
    csr = small_csr if h == 3 else wc_csr
    g = np.random.default_rng(h)
    allocations = [_random_allocation(g, h, csr.n) for _ in range(20)]
    allocations += [[set()] * h, [set(range(csr.n))] * h]
    got = [rr.covered_counts(alloc) for alloc in allocations]
    assert rr._index is None
    for alloc, counts in zip(allocations, got):
        want = [rr.covered_count(i, alloc[i]) for i in range(h)]
        assert counts.tolist() == want
    assert got[-2].sum() == 0 and got[-1].sum() == rr.n_rr


@pytest.mark.parametrize("source", ["local", "spark", "merged"])
@pytest.mark.parametrize("h", [1, 3, 300])
def test_singleton_counts_without_index_equal_index_diff(spark, small_csr, wc_csr, h, source):
    """``singleton_cover_counts`` counts member keys and builds no index;
    the counts equal the index's ``diff(key_ptr)``, and are the same again
    once the index is built."""
    rr = _unindexed(spark, small_csr, wc_csr, h, source)
    counts = rr.singleton_cover_counts()
    assert rr._index is None
    assert counts.shape == (h, rr.n) and counts.sum() == len(rr.members)
    assert np.array_equal(counts, np.diff(rr.key_ptr).reshape(h, rr.n))
    assert np.array_equal(rr.singleton_cover_counts(), counts)


def test_build_instance_indexes_nothing(monkeypatch):
    """The σ collection is only counted: building an instance builds no
    key-major index."""
    built = []
    monkeypatch.setattr(RRCollection, "_build_index", lambda rr: built.append(rr))
    build_instance(None, "tiny")
    assert built == []


@pytest.mark.parametrize("algo", ["RMA", "TI-CARM", "TI-CSRM"])
def test_index_is_built_only_for_selection_samples(monkeypatch, algo):
    """On ``tiny``, RMA indexes each R₁ sample once and never R₂, and TI
    indexes each θ sample once and never a KptEstimation sample (a spy on
    the index builder, and on the generators to tell the samples apart)."""
    inst = build_instance(None, "tiny")
    exp = EXP["tiny"]
    built = []
    build = RRCollection._build_index

    def spy(rr):
        built.append(rr)
        return build(rr)

    monkeypatch.setattr(RRCollection, "_build_index", spy)
    if algo == "RMA":
        made = []
        gen = inst.rr_gen()

        def rr_gen(n_rr, seed):
            made.append(gen(n_rr, seed))
            return made[-1]

        rm_without_oracle(
            rr_gen, inst.costs, inst.budgets, inst.cpe, eps=0.02, rho=0.1,
            sample_scale=exp["sample_scale"], rr_cap=exp["rr_cap"], seed=7,
        )
        # Asked for R₁ then R₂, then in (R₁, R₂) pairs.
        indexed, unindexed = made[0::2], made[1::2]
    else:
        kpt = ti_carm.kpt_estimation
        in_kpt = [False]

        def kpt_spy(*args, **kwargs):
            in_kpt[0] = True
            try:
                return kpt(*args, **kwargs)
            finally:
                in_kpt[0] = False

        monkeypatch.setattr(ti_carm, "kpt_estimation", kpt_spy)
        unindexed = []
        theta = {i: [] for i in range(inst.h)}
        gen_adv = inst.rr_gen_adv()

        def rr_gen_adv(adv, blocks):
            rr = gen_adv(adv, blocks)
            (unindexed if in_kpt[0] else theta[adv]).append(rr)
            return rr

        res = ti_rm(
            rr_gen_adv, inst.csr, inst.costs, 1.1 * inst.budgets,
            rule="gain" if algo == "TI-CARM" else "rate",
            sample_scale=exp["sample_scale"], rr_cap=exp["ti_cap"],
            max_latent=exp["max_latent"], seed=11,
        )
        indexed = [rr for rrs in theta.values() for rr in rrs]
        # Fig. 4's bytes: each advertiser's largest θ sample, index included.
        assert res.index_bytes == sum(max(rr.nbytes for rr in rrs) for rrs in theta.values())
    assert indexed and unindexed
    assert sorted(map(id, built)) == sorted(map(id, indexed))
    assert all(rr._index is None for rr in unindexed)


@pytest.mark.parametrize(
    "indexed", [(False, False), (True, False), (False, True)],
    ids=["neither", "left", "right"],
)
def test_merge_then_index_equals_merging_indexes(small_csr, indexed):
    """Merging collections with no index (a concatenation), or with one
    side indexed, then reading the index gives the five arrays that merging
    two indexed collections gives."""
    def pair():
        return [generate_rr_local(small_csr, CPE, n, seed=s) for n, s in ((700, 53), (500, 54))]

    a, b = pair()
    a.key_ptr, b.key_ptr  # build both indexes
    want = a.merge(b)
    a, b = pair()
    for rr, build in zip((a, b), indexed):
        if build:
            rr.key_ptr
    got = a.merge(b)
    assert (got._index is None) == (indexed == (False, False))
    for name in LAYOUT:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), name)


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
    from tests.spread import live_edge_worlds, reached

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
    csr = build_csr(n, TINY_SRC, TINY_DST, probs)
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
