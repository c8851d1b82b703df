"""Tests for Algorithms 2–3 — Theorem 3.2 case bounds, reference equivalence."""
import pytest

from repro.core.model import brute_force_opt
from repro.core.threshold_greedy import fill, threshold_greedy

from tests.helpers import (
    naive_threshold_greedy_main_loop,
    random_coverage_problem,
)

SEEDS = range(20)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("gamma_frac", [0.0, 0.3, 0.8])
def test_theorem_3_2_cases(seed, gamma_frac):
    """π(S⃗*) against the Theorem 3.2 case bounds, with brute-force OPT."""
    prob = random_coverage_problem(seed, n=7, h=2, n_rr=30)
    gamma = gamma_frac * float(prob.budgets.min())
    res = threshold_greedy(prob, gamma)
    pi = prob.model.pi_alloc(fill(prob, res.start)[0])
    opt, _ = brute_force_opt(prob)
    h = prob.h
    if res.b >= 2:
        assert pi >= res.b * gamma / 2.0 - 1e-9
    elif res.b == 1:
        assert pi >= max((opt - h * gamma) / 6.0, gamma / 2.0) - 1e-9
    else:
        assert pi >= (opt - h * gamma) / 2.0 - 1e-9


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("gamma_frac", [0.0, 0.4])
def test_main_loop_matches_naive(seed, gamma_frac):
    """CELF main loop (lines 1–8) returns the pseudocode's S⃗, D⃗, I."""
    prob = random_coverage_problem(seed, n=7, h=2, n_rr=30)
    gamma = gamma_frac * float(prob.budgets.min())
    res = threshold_greedy(prob, gamma)
    s_ref, d_ref, i_ref = naive_threshold_greedy_main_loop(prob, gamma)
    assert res.s_sets == s_ref
    assert res.d_sets == d_ref
    assert res.b == len(i_ref)


@pytest.mark.parametrize("seed", range(10))
def test_allocation_valid(seed):
    """Disjoint seed sets; every advertiser within budget (model space)."""
    prob = random_coverage_problem(seed, n=8, h=3, n_rr=40)
    res = threshold_greedy(prob, 0.2 * float(prob.budgets.min()))
    assert prob.is_feasible(fill(prob, res.start)[0])


@pytest.mark.parametrize("seed", range(10))
def test_fill_only_improves(seed):
    prob = random_coverage_problem(seed, n=8, h=2, n_rr=40)
    base = [set(), {1}] if prob.is_feasible([set(), {1}]) else [set(), set()]
    filled = fill(prob, base)[0]
    assert prob.model.pi_alloc(filled) >= prob.model.pi_alloc(base) - 1e-12
    assert base[1] <= filled[1]
    assert prob.is_feasible(filled)


def test_fill_respects_disjointness():
    prob = random_coverage_problem(3, n=8, h=2, n_rr=40)
    filled = fill(prob, [set(), set()])[0]
    assert not (filled[0] & filled[1])


@pytest.mark.parametrize("seed", range(8))
def test_huge_gamma_selects_nothing_in_main_loop(seed):
    """γ above γ_max: the rate filter rejects every element (b = 0)."""
    prob = random_coverage_problem(seed, n=7, h=2, n_rr=30)
    res = threshold_greedy(prob, 1e9)
    assert res.b == 0
    assert all(not s for s in res.s_sets)
    assert all(not d for d in res.d_sets)


@pytest.mark.parametrize("seed", range(8))
def test_gamma_zero_is_pure_gain_greedy(seed):
    """γ=0 imposes no rate filter — the main loop is CA-style."""
    prob = random_coverage_problem(seed, n=7, h=2, n_rr=30)
    res = threshold_greedy(prob, 0.0)
    s_ref, d_ref, _ = naive_threshold_greedy_main_loop(prob, 0.0)
    assert res.s_sets == s_ref and res.d_sets == d_ref


def test_single_depleted_advertiser_triggers_greedy_fallback():
    """When |I| = 1 the A_i set comes from Algorithm 1 over unselected nodes."""
    found = False
    for seed in range(60):
        prob = random_coverage_problem(seed, n=7, h=2, n_rr=30, budget_range=(1.0, 3.0))
        res = threshold_greedy(prob, 0.0)
        if res.b == 1:
            found = True
            i = next(j for j in range(2) if res.d_sets[j])
            # A_i avoids nodes selected in the main loop's S sets.
            all_s = set().union(*res.s_sets)
            assert not (res.a_sets[i] & all_s)
            break
    assert found, "no seed produced b == 1 — widen the search"
