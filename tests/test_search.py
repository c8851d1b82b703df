"""Tests for Algorithm 4 (Search) and Algorithm 5 (RM_with_Oracle)."""
import pytest

from repro.core.model import brute_force_opt
from repro.core.rm_oracle import approx_ratio, rm_with_oracle
from repro.core.search import gamma_max, search

from tests.helpers import random_coverage_problem


def test_approx_ratio_formula():
    assert approx_ratio(1, 0.1) == pytest.approx(1 / 3)
    assert approx_ratio(2, 0.1) == pytest.approx(1 / (2 * 3 * 1.1))
    assert approx_ratio(3, 0.2) == pytest.approx(1 / (2 * 4 * 1.2))
    assert approx_ratio(4, 0.1) == pytest.approx(1 / (10 * 1.1))
    assert approx_ratio(10, 0.1) == pytest.approx(1 / (16 * 1.1))


@pytest.mark.parametrize("seed", range(5))
def test_gamma_max_formula(seed):
    prob = random_coverage_problem(seed, n=6, h=2)
    sp = prob.model.singleton_pi()
    expect = 0.0
    for j in range(prob.h):
        for v in range(prob.n):
            denom = prob.costs[j, v] + sp[j, v]
            if denom > 0:
                expect = max(expect, prob.budgets[j] * sp[j, v] / denom)
    assert gamma_max(prob) == pytest.approx(expect)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("tau", [0.1, 0.3])
def test_theorem_3_4_ratio(seed, tau):
    """Search(τ, 1): π(S⃗*) ≥ OPT/(2(h+1)(1+τ)) (Theorem 3.4)."""
    prob = random_coverage_problem(seed, n=7, h=2, n_rr=30)
    opt, _ = brute_force_opt(prob)
    res = search(prob, tau, 1)
    assert res.pi_star >= opt / (2 * (prob.h + 1) * (1 + tau)) - 1e-9


@pytest.mark.parametrize("seed", range(15))
def test_theorem_3_3_ratio(seed):
    """Search(τ, 2): π(S⃗*) ≥ OPT/((h+6)(1+τ)) (Theorem 3.3)."""
    tau = 0.1
    prob = random_coverage_problem(seed, n=8, h=2, n_rr=35)
    opt, _ = brute_force_opt(prob)
    res = search(prob, tau, 2)
    assert res.pi_star >= opt / ((prob.h + 6) * (1 + tau)) - 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_search_endpoint_semantics(seed):
    """t1 runs depleted ≥ b_min budgets; t2 runs (when present) fewer."""
    prob = random_coverage_problem(seed, n=7, h=2, n_rr=30)
    res = search(prob, 0.1, 1)
    if res.t1 is not None:
        assert res.t1.b >= 1
    if res.t2 is not None:
        assert res.t2.b < 1
    assert res.t1 is not None or res.t2 is not None


@pytest.mark.parametrize("seed", range(10))
def test_search_stop_condition(seed):
    prob = random_coverage_problem(seed, n=7, h=2, n_rr=30)
    res = search(prob, 0.1, 1)
    floor = float(prob.cpe.min()) / (prob.h + 6)
    assert (1.1 * res.gamma1 >= res.gamma2 - 1e-12) or (res.gamma2 <= floor + 1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_search_best_at_least_endpoints(seed):
    prob = random_coverage_problem(seed, n=7, h=2, n_rr=30)
    res = search(prob, 0.1, 1)
    for pi in (res.pi1, res.pi2):
        if pi is not None:
            assert res.pi_star >= pi - 1e-12


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("h", [1, 2, 3])
def test_rm_with_oracle_ratio_all_h(seed, h):
    """Theorem 3.5 end-to-end for h = 1, 2, 3 (brute-force OPT)."""
    n = 7 if h < 3 else 6
    prob = random_coverage_problem(seed, n=n, h=h, n_rr=30)
    opt, _ = brute_force_opt(prob)
    tau = 0.1
    res = rm_with_oracle(prob, tau)
    assert res.pi_star >= approx_ratio(h, tau) * opt - 1e-9
    assert prob.is_feasible(res.allocation)


@pytest.mark.parametrize("seed", range(5))
def test_rm_with_oracle_h4_runs(seed):
    """h ≥ 4 path (Search(τ,2)) — feasibility + ratio on tiny instance."""
    prob = random_coverage_problem(seed, n=6, h=4, n_rr=40)
    opt, _ = brute_force_opt(prob)
    res = rm_with_oracle(prob, 0.1)
    assert prob.is_feasible(res.allocation)
    assert res.pi_star >= approx_ratio(4, 0.1) * opt - 1e-9
