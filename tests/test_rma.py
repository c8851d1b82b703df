"""End-to-end tests for Algorithm 6 (RM_without_Oracle / RMA)."""
import numpy as np
import pytest

from repro.core.bounds import lb_mean, ub_mean
from repro.core.model import CoverageRevenueModel, RMProblem, brute_force_opt
from repro.core.rm_oracle import approx_ratio
from repro.core.rma import BIAS_FACTOR, BIAS_THRESHOLD, rm_without_oracle
from repro.costs.incentives import seed_costs
from repro.graphs.csr import build_csr
from repro.graphs.generators import powerlaw_edges
from repro.influence.evaluate import evaluate_revenue, singleton_spreads
from repro.influence.rrset import from_memberships, generate_rr_local


@pytest.fixture(scope="module")
def small_world():
    """A 150-node instance with a local RR generator and a big eval sample."""
    n, h = 150, 3
    src, dst = powerlaw_edges(n, 700, seed=31)
    g = np.random.default_rng(31)
    probs = g.uniform(0.02, 0.25, size=(h, len(src)))
    csr = build_csr(n, src, dst, probs)
    cpe = np.array([1.0, 1.5, 2.0])
    sig = singleton_spreads(generate_rr_local(csr, cpe, 30000, seed=32))
    costs = seed_costs(sig, 0.1, "linear")
    budgets = np.array([30.0, 45.0, 60.0])
    eval_rr = generate_rr_local(csr, cpe, 150000, seed=33)

    def gen(n_rr, seed):
        return generate_rr_local(csr, cpe, n_rr, seed=seed)

    return dict(
        h=h, csr=csr, cpe=cpe, costs=costs, budgets=budgets,
        eval_rr=eval_rr, gen=gen,
    )


@pytest.fixture(scope="module")
def rma_run(small_world):
    w = small_world
    return rm_without_oracle(
        w["gen"], w["costs"], w["budgets"], w["cpe"],
        eps=0.1, rho=0.2, sample_scale=1.0, rr_cap=400_000, seed=5,
    )


def test_rma_terminates_by_beta(rma_run):
    res = rma_run
    assert res.stopped_by in ("beta", "theta_max", "cap")
    assert res.rounds >= 1
    assert res.n_rr_r1 == res.n_rr_r2


def test_rma_beta_meets_target(rma_run):
    """When stopping by β, β ≥ λ−ε held at stop time."""
    res = rma_run
    lam = res.diagnostics["lambda"]
    if res.stopped_by == "beta":
        assert res.beta >= lam - 0.1 - 1e-9
        assert res.feasible


def test_rma_bicriteria_budget(small_world, rma_run):
    """c_i(S_i*) + π_i(S_i*) ≤ (1+ϱ)B_i against the independent eval sample
    (allowing eval sampling noise)."""
    w, res = small_world, rma_run
    _, per = evaluate_revenue(w["eval_rr"], res.allocation)
    for i in range(w["h"]):
        c = sum(w["costs"][i, u] for u in res.allocation[i])
        assert c + per[i] <= 1.2 * w["budgets"][i] * 1.05 + 1e-9


def test_rma_disjoint_allocation(rma_run):
    seen = set()
    for s in rma_run.allocation:
        assert not (seen & s)
        seen |= s


def test_rma_deterministic(small_world):
    w = small_world
    kw = dict(eps=0.1, rho=0.2, sample_scale=1.0, rr_cap=400_000, seed=5)
    a = rm_without_oracle(w["gen"], w["costs"], w["budgets"], w["cpe"], **kw)
    b = rm_without_oracle(w["gen"], w["costs"], w["budgets"], w["cpe"], **kw)
    assert a.allocation == b.allocation
    assert a.beta == b.beta


def test_rma_cap_path(small_world):
    """A tiny rr_cap forces the non-β stopping paths to exercise."""
    w = small_world
    res = rm_without_oracle(
        w["gen"], w["costs"], w["budgets"], w["cpe"],
        eps=0.001, rho=0.05, sample_scale=1.0, rr_cap=256, seed=6,
    )
    assert res.stopped_by in ("theta_max", "cap")
    assert res.n_rr_r1 <= 512


def test_rma_revenue_vs_sampled_opt(small_world, rma_run):
    """π(S⃗*) ≥ (λ−ε)·OPT rests on RMA's two Lemma B.7 bounds, LB(S⃗*) from
    R₂ and UB(O⃗) ≥ OPT from SeekUB's z on R₁. The independent eval sample's
    bounds on π(S⃗*), at RMA's own q, must be consistent with both: its upper
    bound is at least LB(S⃗*), and its lower bound at most UB(O⃗) — a
    consistency check, not the proof."""
    w, res = small_world, rma_run
    assert res.pi_est_r1 > 0
    assert res.beta > 0
    d, ev = res.diagnostics, w["eval_rr"]
    pi_eval, _ = evaluate_revenue(ev, res.allocation)
    n_gamma = w["csr"].n * float(w["cpe"].sum())
    assert ub_mean(pi_eval, ev.n_rr, n_gamma, d["q"]) >= d["lb_s"]
    assert lb_mean(pi_eval, ev.n_rr, n_gamma, d["q"]) <= d["ub_o"]


def test_rma_tiny_instance_ratio():
    """On a brute-forceable instance, RMA's λ−ε guarantee holds against
    the true OPT of its own final sampling space."""
    n, h = 8, 2
    src, dst = powerlaw_edges(n, 20, seed=41)
    g = np.random.default_rng(41)
    probs = g.uniform(0.2, 0.6, size=(h, len(src)))
    csr = build_csr(n, src, dst, probs)
    cpe = np.array([1.0, 1.0])
    costs = np.full((h, n), 0.5)
    budgets = np.array([6.0, 6.0])

    def gen(n_rr, seed):
        return generate_rr_local(csr, cpe, n_rr, seed=seed)

    res = rm_without_oracle(
        gen, costs, budgets, cpe, eps=0.1, rho=0.3, sample_scale=1.0,
        rr_cap=200_000, seed=7,
    )
    big = generate_rr_local(csr, cpe, 100_000, seed=99)
    prob = RMProblem(CoverageRevenueModel(big), costs, (1 + 0.3) * budgets)
    opt, _ = brute_force_opt(prob)
    rev, _ = evaluate_revenue(big, res.allocation)
    lam = approx_ratio(h, 0.1)
    assert rev >= (lam - 0.1) * opt * 0.9  # 0.9: eval sampling slack


def test_bias_check_enlarges_both_collections():
    """The bias check: after a β stop, a solution whose R₂ estimate falls
    below ``BIAS_THRESHOLD`` of its R₁ estimate makes RMA add 3·|R₁| sets to
    both collections and re-solve, until the next enlargement would pass
    ``rr_cap``.

    Only node 0 is affordable. Every R₁ set is {0}; R₂'s sets are {0} three
    times in four and {1} otherwise, so π̃(S⃗*, R₂) = 0.75·π̃(S⃗*, R₁) while
    β still clears λ−ε. ``rr_gen`` is called in (R₁, R₂) pairs.
    """
    n, cap = 16, 4096
    cpe = np.array([1.0])
    costs = np.full((1, n), 100.0)
    costs[0, 0] = 0.5
    calls = []

    def spy(n_rr, seed):
        for_r1 = len(calls) % 2 == 0
        calls.append(n_rr)
        assert len(calls) <= 40, "RMA does not return"
        sets = [{0} if for_r1 or k % 4 < 3 else {1} for k in range(n_rr)]
        return from_memberships(n, cpe, [(0, s) for s in sets])

    assert 0.75 < BIAS_THRESHOLD
    res = rm_without_oracle(
        spy, costs, np.array([40.0]), cpe, eps=0.2, rho=0.5, rr_cap=cap, seed=3
    )
    assert res.stopped_by == "beta"
    assert res.allocation == [{0}]
    assert len(calls) % 2 == 0
    size, enlargements = calls[0], 0
    for r1_ask, r2_ask in zip(calls[2::2], calls[3::2]):
        assert r1_ask == r2_ask
        assert r1_ask in (size, (BIAS_FACTOR - 1) * size)
        enlargements += r1_ask == (BIAS_FACTOR - 1) * size
        size += r1_ask
        assert size <= cap
    assert enlargements >= 2
    assert res.n_rr_r1 == res.n_rr_r2 == size
    assert size * BIAS_FACTOR > cap
    # R₁ + R₂ at return, one member per set: each holds cpe, uint8
    # advertisers, int32 set offsets and members; only R₁ is indexed (int32
    # key offsets and ids), R₂ is only ever counted RR-major.
    rr_major = 8 + size + 4 * (size + 1) + 4 * size
    assert res.index_bytes == 2 * rr_major + 4 * (n + 1) + 4 * size
