"""Headline shape claims from the evaluation section (§5.2), checked on the
scaled LastFM stand-in.

The reproduction target is not absolute numbers but the orderings the paper
reports: RMA is the fastest; its revenue is competitive-to-better at lower
seeding cost with a higher rate of return; TI-CARM collapses under the
super-linear incentive model (Fig. 1 bottom / footnote 8).
"""
import pytest

from repro.experiments.harness import run_rma, run_ti
from repro.experiments.instances import get_eval_rr, get_instance
from repro.experiments.tables import EXP


@pytest.fixture(scope="module")
def linear_runs():
    exp = EXP["lastfm_lite"]
    inst = get_instance("lastfm_lite", alpha=0.1, cost_model="linear")
    ev = get_eval_rr(inst, n_eval=exp["n_eval"])
    kw = dict(sample_scale=exp["sample_scale"])
    rma = run_rma(None, inst, ev, eps=0.02, rho=0.1, rr_cap=exp["rr_cap"], **kw)
    carm = run_ti(
        None, inst, ev, rule="gain", eps=0.1, rr_cap=exp["ti_cap"],
        max_latent=exp["max_latent"], **kw,
    )
    csrm = run_ti(
        None, inst, ev, rule="rate", eps=0.1, rr_cap=exp["ti_cap"],
        max_latent=exp["max_latent"], **kw,
    )
    return rma, carm, csrm


def test_rma_is_fastest(linear_runs):
    rma, carm, csrm = linear_runs
    assert rma.wall_s < carm.wall_s
    assert rma.wall_s < csrm.wall_s


def test_rma_revenue_competitive(linear_runs):
    """Paper: RMA beats both baselines on revenue (linear model). At our
    scale we require ≥90% of the best baseline and record the exact numbers
    in EXPERIMENTS.md."""
    rma, carm, csrm = linear_runs
    assert rma.revenue >= 0.9 * max(carm.revenue, csrm.revenue)


def test_rma_generates_fewer_rr_sets(linear_runs):
    """The Fig. 4 memory story: the baselines' per-advertiser TIM samples
    dwarf RMA's uniform collections."""
    rma, carm, csrm = linear_runs
    assert rma.n_rr_total < carm.n_rr_total
    assert rma.n_rr_total < csrm.n_rr_total


def test_rate_of_return_ordering(linear_runs):
    """Fig. 6: RMA's rate of return beats TI-CSRM's."""
    rma, _, csrm = linear_runs
    assert rma.rate_of_return >= csrm.rate_of_return * 0.98


def test_seed_cost_vs_csrm(linear_runs):
    """Fig. 2: RMA's seeding cost stays below TI-CSRM's."""
    rma, _, csrm = linear_runs
    assert rma.seed_cost <= csrm.seed_cost * 1.1


def test_ti_carm_superlinear_collapse():
    """Fig. 1 bottom: under the super-linear model TI-CARM terminates with
    very few seeds and far less revenue than RMA."""
    exp = EXP["lastfm_lite"]
    inst = get_instance("lastfm_lite", alpha=0.1, cost_model="superlinear")
    ev = get_eval_rr(inst, n_eval=exp["n_eval"])
    rma = run_rma(
        None, inst, ev, eps=0.02, rho=0.1,
        sample_scale=exp["sample_scale"], rr_cap=exp["rr_cap"],
    )
    carm = run_ti(
        None, inst, ev, rule="gain", eps=0.1,
        sample_scale=exp["sample_scale"], rr_cap=exp["ti_cap"],
        max_latent=exp["max_latent"],
    )
    assert carm.n_seeds < rma.n_seeds
    assert carm.revenue < rma.revenue


def test_revenue_decreases_with_alpha():
    """Fig. 1: all revenues fall as α grows (costs rise, fewer seeds fit)."""
    exp = EXP["lastfm_lite"]
    revs = []
    for alpha in (0.1, 0.5):
        inst = get_instance("lastfm_lite", alpha=alpha, cost_model="linear")
        ev = get_eval_rr(inst, n_eval=exp["n_eval"])
        r = run_rma(
            None, inst, ev, eps=0.02, rho=0.1,
            sample_scale=exp["sample_scale"], rr_cap=exp["rr_cap"],
        )
        revs.append(r.revenue)
    assert revs[1] <= revs[0]
