"""Tests for Algorithm 1 (Greedy) — Theorem 3.1 and CELF equivalence."""
import numpy as np
import pytest

from repro.core.greedy import greedy
from repro.core.model import RMProblem, brute_force_opt

from tests.helpers import naive_greedy, random_coverage_problem


def _single_adv_problem(seed, **kw):
    return random_coverage_problem(seed, h=1, **kw)


@pytest.mark.parametrize("seed", range(25))
def test_theorem_3_1_one_third(seed):
    """π(S*) ≥ OPT/3 on exact coverage oracles (Theorem 3.1)."""
    prob = _single_adv_problem(seed, n=7, n_rr=35)
    opt, _ = brute_force_opt(prob)
    res = greedy(prob, range(prob.n), 0)
    assert res.pi_star >= opt / 3.0 - 1e-9


@pytest.mark.parametrize("seed", range(15))
def test_matches_naive_reference(seed):
    """CELF-lazy Greedy returns exactly the pseudocode's solution."""
    prob = _single_adv_problem(seed, n=8, n_rr=40)
    res = greedy(prob, range(prob.n), 0)
    seeds, s_ref, d_ref = naive_greedy(prob, range(prob.n), 0)
    assert res.s_set == s_ref
    assert res.d_set == d_ref
    assert res.seeds == seeds


@pytest.mark.parametrize("seed", range(10))
def test_s_set_budget_feasible(seed):
    """c_i(S_i) + π_i(S_i) ≤ B_i for the incremental set (not the stopple)."""
    prob = _single_adv_problem(seed)
    res = greedy(prob, range(prob.n), 0)
    total = prob.cost_of(0, res.s_set) + prob.model.pi_of(0, res.s_set)
    assert total <= prob.budgets[0] + 1e-9


def test_stopple_node_returned_when_better():
    """A huge-revenue node that overshoots with S must win as D_i."""
    from repro.influence.rrset import from_memberships
    from repro.core.model import CoverageRevenueModel

    # Node 0 covers 10 disjoint RR sets, node 1 covers 2; factor = 4*1/12.
    mem = [(0, {0}) for _ in range(10)] + [(0, {1}) for _ in range(2)]
    rr = from_memberships(4, [3.0], mem)  # factor = 4·3/12 = 1
    model = CoverageRevenueModel(rr)
    costs = np.array([[2.0, 0.1, 50.0, 50.0]])
    budgets = np.array([13.0])
    prob = RMProblem(model, costs, budgets)
    res = greedy(prob, range(4), 0)
    # Node 1 (rate 2/2.1) is picked first and fits; node 0 (rate 10/12) then
    # overshoots cumulatively (2.1 + 2 + 10 + 2 > 13) → stopple.
    assert res.d_set == {0}
    assert res.seeds == {0}  # π(D)=10·f > π(S)
    assert res.pi_star == pytest.approx(model.pi_of(0, {0}))


def test_infeasible_singletons_filtered():
    prob = _single_adv_problem(3)
    prob.costs[0, :] = prob.budgets[0] * 10  # every node infeasible alone
    res = greedy(prob, range(prob.n), 0)
    assert res.seeds == set() and res.pi_star == 0.0


def test_candidate_restriction():
    prob = _single_adv_problem(4)
    res = greedy(prob, [0, 1], 0)
    assert res.seeds <= {0, 1}
