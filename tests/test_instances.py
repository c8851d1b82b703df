"""Tests for dataset presets and instance assembly."""
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import instances
from repro.experiments.instances import (
    PRESETS,
    build_instance,
    get_eval_rr,
    get_instance,
)
from repro.graphs.csr import build_csr
from repro.influence.rrset import _CHUNK, RRCollection, generate_rr_local


def test_preset_catalogue():
    for name in ("lastfm_lite", "flixster_lite", "dblp_lite", "livejournal_lite"):
        assert name in PRESETS
    # Table 1 scale relations preserved: lastfm at native size.
    assert PRESETS["lastfm_lite"]["n"] == 1300
    assert PRESETS["lastfm_lite"]["m"] == 14700


def test_table2_budget_stats():
    """Our LastFM budgets/CPEs match the paper's Table 2 min/max, mean≈."""
    cfg = PRESETS["lastfm_lite"]
    b = np.asarray(cfg["budgets"])
    c = np.asarray(cfg["cpes"])
    assert b.min() == 100 and b.max() == 1200
    assert abs(b.mean() - 320) / 320 < 0.15
    assert c.min() == 1.0 and c.max() == 2.0
    assert c.mean() == pytest.approx(1.5)


@pytest.fixture(scope="module")
def tiny_inst():
    return get_instance("tiny", alpha=0.1, cost_model="linear")


def test_tiny_instance_shapes(tiny_inst):
    inst = tiny_inst
    assert inst.n == 60 and inst.h == 3
    assert inst.costs.shape == (3, 60)
    assert inst.sigma1.shape == (3, 60)
    assert np.all(inst.sigma1 >= 1.0)
    assert np.all(inst.costs > 0) or np.any(inst.costs == 0)  # ≥ 0 by model
    assert inst.csr.in_probs.shape == (3, inst.m)
    assert inst.csr.n == 60


def test_instance_cache_and_cost_variants(tiny_inst):
    again = get_instance("tiny", alpha=0.1, cost_model="linear")
    assert again is tiny_inst
    sup = get_instance("tiny", alpha=0.2, cost_model="superlinear")
    assert sup is not tiny_inst
    # Graph and spreads shared; only costs differ.
    assert sup.csr is tiny_inst.csr
    assert np.allclose(sup.costs, 0.2 * tiny_inst.sigma1**2)


def test_costs_follow_model(tiny_inst):
    assert np.allclose(tiny_inst.costs, 0.1 * tiny_inst.sigma1)


def test_eval_rr_cached(tiny_inst):
    a = get_eval_rr(tiny_inst, n_eval=5000)
    b = get_eval_rr(tiny_inst, n_eval=5000)
    assert a is b
    assert a.n_rr == 5000


def test_wc_preset_probabilities():
    """Weighted-Cascade presets: each in-slice of v carries 1/indeg(v), in a
    single row shared by every advertiser."""
    cfg = PRESETS["dblp_lite"]
    src, dst, probs = instances._graph_and_probs(cfg)
    n = cfg["n"]
    csr = build_csr(n, src, dst, probs)
    indeg = np.bincount(dst, minlength=n)
    assert np.array_equal(np.diff(csr.in_indptr), indeg)
    assert csr.in_probs.shape == (1, len(src))
    head = np.repeat(np.arange(n), indeg)  # v of each in-CSR slot
    assert np.allclose(csr.in_probs[0], 1.0 / indeg[head])


def _spy_paths(monkeypatch):
    """Record, in order, each driver ("local") or Spark ("spark") generation
    call and each ``RRCollection.merge`` that ``_generate`` makes."""
    calls = []

    def spy(owner, name, label):
        real = getattr(owner, name)

        def wrapper(*a, **kw):
            calls.append(label)
            return real(*a, **kw)

        monkeypatch.setattr(owner, name, wrapper)

    spy(instances, "generate_rr_local", "local")
    spy(instances, "generate_rr_collection", "spark")
    spy(RRCollection, "merge", "merge")
    return calls


def _assert_same_collection(got, want):
    for name in ("rr_adv", "rr_ptr", "members", "key_ptr", "rr_ids"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def _active_session(monkeypatch, session):
    """Make ``SparkSession.getActiveSession`` return ``session`` and count
    its calls."""
    lookups = []

    def lookup():
        lookups.append(session)
        return session

    monkeypatch.setattr(instances.SparkSession, "getActiveSession", lookup)
    return lookups


@pytest.mark.parametrize("n_rr", [0, 700, 5000])
@pytest.mark.parametrize("min_members", [0, 10**12])
def test_generate_dispatch_returns_the_same_collection(
    spark, tiny_inst, monkeypatch, n_rr, min_members
):
    """The local/Spark choice changes speed only: with Spark wider than the
    driver, a single block goes to Spark in one call when its expected
    members (sets × the instance's width) pass the threshold, to the driver
    in one call otherwise, and either way the collection equals the
    driver's. The session Spark runs it on is the one this thread started,
    found without being passed."""
    calls = _spy_paths(monkeypatch)
    monkeypatch.setattr(instances, "_SPARK_MIN_MEMBERS", min_members)
    monkeypatch.setattr(instances, "_spark_outnumbers_driver", lambda s: s is spark)
    inst = tiny_inst
    got = instances._generate(inst.csr, inst.cpe, [(n_rr, 17)], inst.width)
    assert calls == ["spark" if n_rr * inst.width > min_members else "local"]
    want = generate_rr_local(inst.csr, inst.cpe, n_rr, seed=17)
    assert got.n_rr == n_rr
    _assert_same_collection(got, want)


@pytest.mark.parametrize("parallelism", [1, 4, 5])
def test_spark_runs_a_request_only_with_more_cores_than_the_driver(
    tiny_inst, monkeypatch, parallelism
):
    """A request over the split goes to Spark only when the active session's
    default parallelism exceeds the CPUs the driver may fork over (here 4)
    on a master that is not local, and to the driver otherwise: a `local[k]`
    master runs on the driver's own cores whatever its k. Without an active
    session it always runs on the driver."""
    monkeypatch.setattr(instances, "_SPARK_MIN_MEMBERS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert not instances._spark_outnumbers_driver(None)
    calls = _spy_paths(monkeypatch)
    monkeypatch.setattr(instances, "generate_rr_collection", lambda *a, **kw: "spark")
    inst = tiny_inst
    for master in ("spark://cluster:7077", "local[16]", "local[*]", None):
        fake = master and SimpleNamespace(
            sparkContext=SimpleNamespace(master=master, defaultParallelism=parallelism)
        )
        _active_session(monkeypatch, fake)
        wider = master is not None and parallelism > 4 and not master.startswith("local")
        assert instances._spark_outnumbers_driver(fake) == wider
        calls.clear()
        got = instances._generate(inst.csr, inst.cpe, [(700, 17)], inst.width)
        if wider:
            assert got == "spark" and calls == []
        else:
            assert calls == ["local"] and got.n_rr == 700


@pytest.mark.parametrize("n_rr, lookups", [(700, 0), (701, 1)])
def test_generate_looks_a_session_up_only_over_the_split(
    tiny_inst, monkeypatch, n_rr, lookups
):
    """``_generate`` asks for the active session only for a single block
    over ``_SPARK_MIN_MEMBERS``, and once; without one, that block runs on
    the driver too."""
    inst = tiny_inst
    monkeypatch.setattr(instances, "_SPARK_MIN_MEMBERS", 700 * inst.width)
    seen = _active_session(monkeypatch, None)
    calls = _spy_paths(monkeypatch)
    got = instances._generate(inst.csr, inst.cpe, [(n_rr, 17)], inst.width)
    assert len(seen) == lookups
    assert calls == ["local"]
    _assert_same_collection(got, generate_rr_local(inst.csr, inst.cpe, n_rr, seed=17))


@pytest.mark.parametrize("n_rr", [1000, 40_000, 150_000])
def test_driver_forks_a_request_only_from_the_member_threshold(tiny_inst, monkeypatch, n_rr):
    """``_generate`` asks the driver to fork exactly when a request's
    expected members reach ``_FORK_MIN_MEMBERS``."""
    forks = []
    real = instances.generate_rr_local

    def spy(*a, fork=False, **kw):
        forks.append(fork)
        return real(*a, fork=fork, **kw)

    monkeypatch.setattr(instances, "generate_rr_local", spy)
    inst = tiny_inst
    got = instances._generate(inst.csr, inst.cpe, [(n_rr, 17)], inst.width)
    assert got.n_rr == n_rr
    assert forks == [n_rr * inst.width >= instances._FORK_MIN_MEMBERS]


# block list -> what every list of blocks must be: one driver call
BLOCK_LISTS = {
    "blocks": [(37, 5), (300, 7), (37, 5)],
    "blocks_over_chunk": [(_CHUNK, 1), (1, 2)],
    "no_blocks": [],
}


@pytest.mark.parametrize("route", list(BLOCK_LISTS))
def test_generate_makes_one_call_per_request(tiny_inst, monkeypatch, route):
    """A request of several blocks (or none) is one driver call, never a
    merge, however many members it holds, even with an active session wider
    than the driver: Spark takes one seed range only."""
    blocks = BLOCK_LISTS[route]
    calls = _spy_paths(monkeypatch)
    monkeypatch.setattr(instances, "_SPARK_MIN_MEMBERS", 0)
    monkeypatch.setattr(instances, "_spark_outnumbers_driver", lambda s: True)
    _active_session(monkeypatch, object())
    inst = tiny_inst
    got = instances._generate(inst.csr, inst.cpe, blocks, inst.width)
    assert calls == ["local"]
    want = generate_rr_local(inst.csr, inst.cpe, blocks)
    assert got.n_rr == sum(n for n, _ in blocks)
    _assert_same_collection(got, want)


def test_width_is_the_mean_size_of_the_sigma_collection(tiny_inst):
    cfg = PRESETS["tiny"]
    rr = generate_rr_local(
        tiny_inst.csr, tiny_inst.cpe, min(20 * cfg["n"], 200_000), seed=cfg["seed"] + 77
    )
    assert tiny_inst.width == len(rr.members) / rr.n_rr


@pytest.mark.parametrize("preset", ["tiny", "lastfm_lite"])
def test_build_instance_draws_the_sigma_collection_once(monkeypatch, preset):
    """``build_instance`` makes one RR generation call, on the driver: the
    σ collection, which gives both the singleton spreads and the width."""
    calls = _spy_paths(monkeypatch)
    build_instance(None, preset)
    assert calls == ["local"]


def test_setup_starts_no_spark_job(spark):
    """Building an instance and its evaluation collection on `tiny` runs on
    the driver: the probabilities are mixed in numpy, and no RR collection
    there is large enough to cross the measured local/Spark split."""
    sc = spark.sparkContext
    group = "instance-setup-on-the-driver"
    sc.setJobGroup(group, "build_instance + get_eval_rr on tiny")
    try:
        inst = build_instance(spark, "tiny")
        # A seed no other test uses, so the collection is generated here.
        get_eval_rr(inst, seed=515151)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    assert list(sc.statusTracker().getJobIdsForGroup(group)) == []
