"""Integration tests for the run harness on the tiny preset."""
import pytest

from repro.experiments.harness import run_rma, run_ti
from repro.experiments.instances import get_eval_rr, get_instance


@pytest.fixture(scope="module")
def world(spark):
    inst = get_instance(spark, "tiny", alpha=0.1, cost_model="linear")
    ev = get_eval_rr(spark, inst, n_eval=20000)
    return spark, inst, ev


@pytest.fixture(scope="module")
def rma_record(world):
    spark, inst, ev = world
    return run_rma(
        spark, inst, ev, eps=0.1, rho=0.2, sample_scale=1.0, rr_cap=60_000
    )


def test_rma_record_fields(rma_record):
    r = rma_record
    assert r.algo == "RMA" and r.dataset == "tiny"
    assert r.wall_s > 0 and r.n_rr_total > 0
    assert r.revenue > 0
    assert r.n_seeds == sum(len(s) for s in r.allocation)
    assert 0 < r.rate_of_return <= 1
    assert r.seed_cost >= 0
    assert r.params["index_bytes"] > 0


def test_rma_bicriteria_on_eval(world, rma_record):
    """(1+ϱ)-budget feasibility holds against the independent eval sample
    (with sampling slack)."""
    _, inst, ev = world
    from repro.influence.evaluate import evaluate_revenue

    _, per = evaluate_revenue(ev, rma_record.allocation)
    for i in range(inst.h):
        c = sum(inst.costs[i, u] for u in rma_record.allocation[i])
        assert c + per[i] <= 1.2 * inst.budgets[i] * 1.15 + 1e-9


@pytest.mark.parametrize("rule", ["gain", "rate"])
def test_ti_record_fields(world, rule):
    spark, inst, ev = world
    r = run_ti(
        spark, inst, ev, rule=rule, eps=0.1, sample_scale=0.3,
        rr_cap=10_000, max_latent=8,
    )
    assert r.algo == ("TI-CARM" if rule == "gain" else "TI-CSRM")
    assert r.revenue >= 0 and r.wall_s > 0
    assert r.params["index_bytes"] > 0
    # Disjoint allocation across advertisers.
    seen = set()
    for s in r.allocation:
        assert not (seen & s)
        seen |= s


def test_budget_usage_definition(world, rma_record):
    _, inst, _ = world
    expect = (rma_record.revenue + rma_record.seed_cost) / inst.budgets.sum()
    assert rma_record.budget_usage == pytest.approx(expect)
