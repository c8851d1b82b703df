"""Tests for the RR-coverage revenue model π̃ (its state, its value a
selection reports, the problem bundle) and brute-force OPT. π̃ is checked
against exact live-edge enumeration in ``tests/test_spread.py``."""
import numpy as np
import pytest

from repro.core.greedy import greedy
from repro.core.model import CoverageRevenueModel, brute_force_opt
from repro.core.threshold_greedy import fill_all, threshold_greedy
from repro.influence.rrset import from_memberships

from tests.helpers import random_coverage_problem


@pytest.mark.parametrize("seed", range(8))
def test_coverage_state_matches_stateless(seed):
    prob = random_coverage_problem(seed)
    model = prob.model
    g = np.random.default_rng(seed)
    state = model.state()
    sets = [set() for _ in range(prob.h)]
    for _ in range(10):
        u, i = int(g.integers(0, prob.n)), int(g.integers(0, prob.h))
        gain = state.gain(u, i)
        assert gain == pytest.approx(
            model.pi_of(i, sets[i] | {u}) - model.pi_of(i, sets[i])
        )
        state.add(u, i)
        sets[i].add(u)
        assert state.pi_i(i) == pytest.approx(model.pi_of(i, sets[i]))
    assert sum(state.pi_i(i) for i in range(prob.h)) == pytest.approx(
        model.pi_alloc(sets)
    )


@pytest.mark.parametrize("seed", range(8))
def test_coverage_monotone_submodular(seed):
    """π̃ is a coverage function: monotone and submodular by construction."""
    prob = random_coverage_problem(seed)
    model = prob.model
    g = np.random.default_rng(seed + 1000)
    for _ in range(10):
        i = int(g.integers(0, prob.h))
        small = set(int(x) for x in g.choice(prob.n, size=2, replace=False))
        big = small | {int(g.integers(0, prob.n))}
        u = int(g.integers(0, prob.n))
        assert model.pi_of(i, big) >= model.pi_of(i, small) - 1e-12
        gain_small = model.pi_of(i, small | {u}) - model.pi_of(i, small)
        gain_big = model.pi_of(i, big | {u}) - model.pi_of(i, big)
        assert gain_big <= gain_small + 1e-12


def test_state_from_allocation():
    prob = random_coverage_problem(0)
    alloc = [{0, 1}, {2}]
    state = prob.model.state(alloc)
    assert state.pi_i(0) == pytest.approx(prob.model.pi_of(0, {0, 1}))
    assert state.pi_i(1) == pytest.approx(prob.model.pi_of(1, {2}))


@pytest.mark.parametrize("seed", range(12))
def test_state_from_allocation_equals_replay(seed):
    """The one-pass state of an allocation is the add-by-add state, exactly.
    Seeds overlap (a node may serve two advertisers, and seeds share RR
    sets) and some advertisers are empty."""
    prob = random_coverage_problem(seed, n=9, h=4, n_rr=80, max_rr_size=4)
    g = np.random.default_rng(seed)
    alloc = [
        set(g.choice(prob.n, size=int(g.integers(1, 6)), replace=False).tolist())
        if g.random() < 0.7 else set()
        for _ in range(prob.h)
    ]
    alloc[int(g.integers(0, prob.h))] = set()
    one_pass = prob.model.state(alloc)
    replay = prob.model.state()
    for i in range(prob.h):
        for u in alloc[i]:
            replay.add(u, i)
    assert np.array_equal(one_pass.covered, replay.covered)
    assert np.array_equal(one_pass.uncovered, replay.uncovered)
    assert one_pass.cov_count == replay.cov_count
    assert [one_pass.pi_i(i) for i in range(prob.h)] == [
        replay.pi_i(i) for i in range(prob.h)
    ]


def test_rmproblem_feasibility():
    prob = random_coverage_problem(1)
    assert prob.is_feasible([set(), set()])
    # Overlapping allocations are infeasible (partition constraint).
    assert not prob.is_feasible([{0}, {0}])
    # Budget violation.
    big = [set(range(prob.n)), set()]
    if prob.cost_of(0, big[0]) + prob.model.pi_of(0, big[0]) > prob.budgets[0]:
        assert not prob.is_feasible(big)


@pytest.mark.parametrize("seed", range(5))
def test_brute_force_opt_is_feasible_and_maximal_locally(seed):
    prob = random_coverage_problem(seed, n=5, h=2, n_rr=25)
    opt, alloc = brute_force_opt(prob)
    assert prob.is_feasible(alloc)
    assert opt == pytest.approx(prob.model.pi_alloc(alloc))
    # No single-node addition can stay feasible and improve (local check).
    for i in range(prob.h):
        for u in range(prob.n):
            if u in alloc[0] | alloc[1]:
                continue
            cand = [set(s) for s in alloc]
            cand[i].add(u)
            if prob.is_feasible(cand):
                assert prob.model.pi_alloc(cand) <= opt + 1e-9


def test_factor_formula():
    rr = from_memberships(10, [1.0, 3.0], [(0, {1}), (1, {2})])
    model = CoverageRevenueModel(rr)
    # π̃_1({2}) = nΓ·1/|R| = 10·4/2 = 20.
    assert model.pi_of(1, {2}) == pytest.approx(20.0)
    assert model.pi_of(0, {1}) == pytest.approx(20.0)
    assert model.pi_of(0, {2}) == 0.0


# ---------------------------------------------------------------------------
# One π̃ per allocation: the value a selection returns is the model's value
# ---------------------------------------------------------------------------


# On seeds 1, 8, 22, 25, 26, 30 and 33, a running sum of Greedy's marginal
# gains differs from π̃_i(S_i) in the last bit. The ids keep the
# "coverage-" prefix so that each case keeps its test id.
PI_PROBLEMS = [pytest.param(s, id=f"coverage-{s}") for s in range(40)]


@pytest.mark.parametrize("seed", PI_PROBLEMS)
def test_selection_pi_equals_model_pi(seed):
    """Greedy's and ThresholdGreedy's π̃ is the model's value, bit for bit."""
    prob = random_coverage_problem(seed, n=9, h=3, n_rr=60)
    for i in range(prob.h):
        res = greedy(prob, range(prob.n), i)
        assert res.pi_star == prob.model.pi_of(i, res.seeds)
    for frac in (0.0, 0.1, 0.5):
        res = threshold_greedy(prob, frac * float(prob.budgets.min()))
        [(allocation, pi)] = fill_all(prob, [res.start])
        assert pi == prob.model.pi_alloc(allocation)
