"""Degenerate inputs: h = 1, a zero budget, an advertiser with no feasible node.

Each goes through RM_with_Oracle (Algorithm 5), RM_without_Oracle
(Algorithm 6) and TI-CARM/TI-CSRM. Each must return a valid allocation —
disjoint, in range, one (possibly empty) seed set per advertiser — without
raising, and the starved advertiser gets no seeds.
"""
import numpy as np
import pytest

from repro.baselines.ti_carm import ti_rm
from repro.core.model import CoverageRevenueModel, RMProblem
from repro.core.rm_oracle import rm_with_oracle
from repro.core.rma import rm_without_oracle
from repro.graphs.csr import build_csr
from repro.graphs.generators import powerlaw_edges
from repro.influence.rrset import from_memberships, generate_rr_local

from tests.helpers import random_coverage_problem


def assert_valid(alloc, h, n):
    assert len(alloc) == h
    seen = set()
    for s in alloc:
        s = {int(u) for u in s}
        assert all(0 <= u < n for u in s)
        assert not (s & seen)
        seen |= s


def starve(costs, budgets, case, i):
    costs, budgets = costs.copy(), budgets.copy()
    if case == "zero_budget":
        budgets[i] = 0.0
    else:  # no node is affordable on its own
        costs[i, :] = 10.0 * budgets[i] + 1.0
    return costs, budgets


# ---------------------------------------------------------------------------
# RM_with_Oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_rm_with_oracle_single_advertiser(seed):
    prob = random_coverage_problem(seed, n=8, h=1, n_rr=40)
    res = rm_with_oracle(prob, 0.1)
    assert_valid(res.allocation, 1, prob.n)
    assert res.search is None
    assert prob.is_feasible(res.allocation)
    assert res.pi_star == pytest.approx(prob.model.pi_of(0, res.allocation[0]))


@pytest.mark.parametrize("case", ["zero_budget", "no_feasible_node"])
@pytest.mark.parametrize("h", [1, 2, 4])
@pytest.mark.parametrize("seed", range(4))
def test_rm_with_oracle_starved_advertiser(case, h, seed):
    base = random_coverage_problem(seed, n=8, h=h, n_rr=50)
    costs, budgets = starve(base.costs, base.budgets, case, h - 1)
    prob = RMProblem(base.model, costs, budgets)
    res = rm_with_oracle(prob, 0.1)
    assert_valid(res.allocation, h, prob.n)
    assert res.allocation[h - 1] == set()
    assert prob.is_feasible(res.allocation)


def test_rm_with_oracle_every_advertiser_starved():
    rr = from_memberships(4, 2, [1.0, 1.0], [(0, {0, 1}), (1, {2}), (1, {3})])
    prob = RMProblem(CoverageRevenueModel(rr), np.ones((2, 4)), np.zeros(2))
    res = rm_with_oracle(prob, 0.1)
    assert res.allocation == [set(), set()]
    assert res.pi_star == 0.0


# ---------------------------------------------------------------------------
# RM_without_Oracle
# ---------------------------------------------------------------------------


def rma_world(h):
    n = 60
    src, dst = powerlaw_edges(n, 240, seed=71)
    probs = np.random.default_rng(71).uniform(0.05, 0.3, size=(h, len(src)))
    csr = build_csr(n, src, dst, probs, h=h, shared_probs=False)
    cpe = np.linspace(1.0, 2.0, h)
    costs = np.random.default_rng(72).uniform(0.5, 2.0, size=(h, n))
    return csr, cpe, costs, np.linspace(12.0, 20.0, h)


@pytest.mark.parametrize("case", ["zero_budget", "no_feasible_node"])
@pytest.mark.parametrize("h", [1, 2, 4])
def test_rma_starved_advertiser(case, h):
    csr, cpe, costs, budgets = rma_world(h)
    costs, budgets = starve(costs, budgets, case, h - 1)
    calls = []

    def gen(n_rr, seed):
        calls.append(n_rr)
        return generate_rr_local(csr, cpe, n_rr, seed=seed)

    rho = 0.1
    res = rm_without_oracle(
        gen, costs, budgets, cpe, csr.n, rho=rho, sample_scale=0.05,
        rr_cap=4000, seed=3,
    )
    assert_valid(res.allocation, h, csr.n)
    assert res.allocation[h - 1] == set()
    # Algorithm 5 solves on R₁ under the budgets (1+ϱ/2)B_i.
    for i in range(h):
        assert sum(costs[i, u] for u in res.allocation[i]) <= (1 + rho / 2) * budgets[i]
    if not (budgets > 0).any():  # every budget zero: nothing to sample
        assert calls == [] and res.stopped_by == "no_budget"
    else:
        assert calls


# ---------------------------------------------------------------------------
# TI-CARM / TI-CSRM
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def world():
    n, h = 60, 3
    src, dst = powerlaw_edges(n, 240, seed=61)
    probs = np.random.default_rng(61).uniform(0.05, 0.3, size=(h, len(src)))
    csr = build_csr(n, src, dst, probs, h=h, shared_probs=False)
    cpe = np.array([1.0, 1.5, 2.0])
    costs = np.random.default_rng(62).uniform(0.5, 2.0, size=(h, n))
    return csr, cpe, costs, np.array([12.0, 15.0, 20.0])


def run_ti(csr, cpe, costs, budgets, rule):
    h = len(budgets)

    def gen_adv(adv, n_rr, seed):
        onehot = np.zeros(csr.h)
        onehot[adv] = cpe[adv]
        return generate_rr_local(csr, onehot, n_rr, seed=seed)

    return ti_rm(
        gen_adv, csr, costs[:h], budgets, rule=rule,
        sample_scale=0.05, rr_cap=2000, seed=5, max_latent=4,
    )


@pytest.mark.parametrize("rule", ["gain", "rate"])
def test_ti_single_advertiser(world, rule):
    csr, cpe, costs, budgets = world
    res = run_ti(csr, cpe, costs, budgets[:1], rule)
    assert_valid(res.allocation, 1, csr.n)
    assert sum(costs[0, u] for u in res.allocation[0]) <= budgets[0]


@pytest.mark.parametrize("case", ["zero_budget", "no_feasible_node"])
@pytest.mark.parametrize("rule", ["gain", "rate"])
@pytest.mark.parametrize("h", [1, 3])
def test_ti_starved_advertiser(world, case, rule, h):
    csr, cpe, costs, budgets = world
    costs, budgets = starve(costs[:h], budgets[:h], case, h - 1)
    res = run_ti(csr, cpe, costs, budgets, rule)
    assert_valid(res.allocation, h, csr.n)
    assert res.allocation[h - 1] == set()
    for i in range(h):
        assert sum(costs[i, u] for u in res.allocation[i]) <= budgets[i]
