"""Tests for dataset presets and instance assembly."""
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
from repro.influence.rrset import generate_rr_local


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
def tiny_inst(spark):
    return get_instance(spark, "tiny", alpha=0.1, cost_model="linear")


def test_tiny_instance_shapes(tiny_inst):
    inst = tiny_inst
    assert inst.n == 60 and inst.h == 3
    assert inst.costs.shape == (3, 60)
    assert inst.sigma1.shape == (3, 60)
    assert np.all(inst.sigma1 >= 1.0)
    assert np.all(inst.costs > 0) or np.any(inst.costs == 0)  # ≥ 0 by model
    assert inst.csr.in_probs.shape == (3, inst.m)
    assert inst.csr.n == 60


def test_instance_cache_and_cost_variants(spark, tiny_inst):
    again = get_instance(spark, "tiny", alpha=0.1, cost_model="linear")
    assert again is tiny_inst
    sup = get_instance(spark, "tiny", alpha=0.2, cost_model="superlinear")
    assert sup is not tiny_inst
    # Graph and spreads shared; only costs differ.
    assert sup.csr is tiny_inst.csr
    assert np.allclose(sup.costs, 0.2 * tiny_inst.sigma1**2)


def test_costs_follow_model(tiny_inst):
    assert np.allclose(tiny_inst.costs, 0.1 * tiny_inst.sigma1)


def test_eval_rr_cached(spark, tiny_inst):
    a = get_eval_rr(spark, tiny_inst, n_eval=5000)
    b = get_eval_rr(spark, tiny_inst, n_eval=5000)
    assert a is b
    assert a.n_rr == 5000


def test_wc_preset_probabilities():
    """Weighted-Cascade presets: each in-slice of v carries 1/indeg(v), in a
    single row shared by every advertiser."""
    cfg = PRESETS["dblp_lite"]
    src, dst, probs, shared = instances._graph_and_probs(cfg)
    assert shared
    n = cfg["n"]
    csr = build_csr(n, src, dst, probs, h=cfg["h"], shared_probs=shared)
    indeg = np.bincount(dst, minlength=n)
    assert np.array_equal(np.diff(csr.in_indptr), indeg)
    assert csr.in_probs.shape == (1, len(src))
    head = np.repeat(np.arange(n), indeg)  # v of each in-CSR slot
    assert np.allclose(csr.in_probs[0], 1.0 / indeg[head])


@pytest.mark.parametrize("n_rr", [0, 700, 5000])
@pytest.mark.parametrize("min_members", [0, 10**12])
def test_generate_dispatch_returns_the_same_collection(
    spark, tiny_inst, monkeypatch, n_rr, min_members
):
    """The local/Spark choice changes speed only: whichever path the
    member-count rule picks, the collection equals the driver's."""
    calls = []
    real = instances.generate_rr_collection

    def spy(spark, csr, cpe, n_rr, **kw):
        calls.append(n_rr)
        return real(spark, csr, cpe, n_rr, **kw)

    monkeypatch.setattr(instances, "_SPARK_MIN_MEMBERS", min_members)
    monkeypatch.setattr(instances, "generate_rr_collection", spy)
    got = instances._generate(spark, tiny_inst.csr, tiny_inst.cpe, n_rr, 17)
    want = generate_rr_local(tiny_inst.csr, tiny_inst.cpe, n_rr, seed=17)
    probe = instances._WIDTH_PROBE
    assert calls == ([n_rr] if min_members == 0 and n_rr > probe else [])
    for name in ("rr_adv", "rr_ptr", "members", "key_ptr", "rr_ids"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


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
        get_eval_rr(spark, inst, seed=515151)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    assert list(sc.statusTracker().getJobIdsForGroup(group)) == []
