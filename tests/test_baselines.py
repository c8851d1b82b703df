"""Tests for the Aslay et al. baselines: CA/CS-Greedy, TIM, TI-CARM/TI-CSRM."""
import math

import numpy as np
import pytest

from repro.baselines.cs_greedy import ca_greedy, cs_greedy
from repro.baselines.ti_carm import ti_rm
from repro.baselines.tim import kpt_estimation, log_binom, rr_width, tim_theta
from repro.core.model import CoverageRevenueModel, RMProblem
from repro.experiments import instances
from repro.graphs.csr import build_csr
from repro.graphs.generators import powerlaw_edges
from repro.influence import rrset
from repro.influence.rrset import from_memberships, generate_rr_local

from tests.helpers import random_coverage_problem


def _footnote8_problem():
    """The paper's footnote-8 toy: u,v,w with revenues 91/50/45, costs 9/3/2,
    budget 100, disjoint reachable sets. Built as an exact coverage model
    with factor 1 (n·Γ/|R| = 186·1/186)."""
    mem = (
        [(0, {0}) for _ in range(91)]
        + [(0, {1}) for _ in range(50)]
        + [(0, {2}) for _ in range(45)]
    )
    rr = from_memberships(186, [1.0], mem)
    model = CoverageRevenueModel(rr)
    costs = np.array([[9.0, 3.0, 2.0] + [1000.0] * 183])
    budgets = np.array([100.0])
    return RMProblem(model, costs, budgets)


def test_footnote8_ca_picks_u():
    prob = _footnote8_problem()
    alloc = ca_greedy(prob)
    assert alloc[0] == {0}
    assert prob.model.pi_alloc(alloc) == pytest.approx(91.0)


def test_footnote8_cs_picks_v_w():
    prob = _footnote8_problem()
    alloc = cs_greedy(prob)
    assert alloc[0] == {1, 2}
    assert prob.model.pi_alloc(alloc) == pytest.approx(95.0)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("algo", [ca_greedy, cs_greedy])
def test_greedy_baselines_feasible(seed, algo):
    prob = random_coverage_problem(seed, n=8, h=3, n_rr=40)
    alloc = algo(prob)
    assert prob.is_feasible(alloc)


@pytest.mark.parametrize("seed", range(5))
def test_cs_never_cheaper_rate_than_ca_cost(seed):
    """CS allocations cost no more than CA's per unit of revenue (its whole
    point); checked as total cost / revenue ratio."""
    prob = random_coverage_problem(seed, n=8, h=2, n_rr=40)
    ca, cs = ca_greedy(prob), cs_greedy(prob)
    rev_ca = prob.model.pi_alloc(ca)
    rev_cs = prob.model.pi_alloc(cs)
    cost_ca = sum(prob.cost_of(i, ca[i]) for i in range(2))
    cost_cs = sum(prob.cost_of(i, cs[i]) for i in range(2))
    if rev_ca > 0 and rev_cs > 0:
        assert cost_cs / rev_cs <= cost_ca / rev_ca + 0.5


def test_log_binom():
    import math

    assert log_binom(10, 3) == pytest.approx(math.log(120))
    assert log_binom(5, 0) == pytest.approx(0.0)
    assert log_binom(5, 7) == pytest.approx(0.0)  # clamped


def test_tim_theta_monotonicity():
    base = tim_theta(1000, 5, 0.1, 50.0)
    assert tim_theta(1000, 10, 0.1, 50.0) > base  # more seeds → more
    assert tim_theta(1000, 5, 0.05, 50.0) > base  # smaller ε → more
    assert tim_theta(1000, 5, 0.1, 100.0) < base  # better KPT → fewer


@pytest.fixture(scope="module")
def ti_world():
    n, h = 120, 2
    src, dst = powerlaw_edges(n, 600, seed=51)
    g = np.random.default_rng(51)
    probs = g.uniform(0.03, 0.3, size=(h, len(src)))
    csr = build_csr(n, src, dst, probs)
    cpe = np.array([1.0, 1.5])

    def gen_adv(adv, blocks):
        onehot = np.zeros(h)
        onehot[adv] = cpe[adv]
        return generate_rr_local(csr, onehot, blocks)

    from repro.costs.incentives import seed_costs
    from repro.influence.evaluate import singleton_spreads

    sig = singleton_spreads(generate_rr_local(csr, cpe, 20000, seed=52))
    costs = seed_costs(sig, 0.1, "linear")
    return dict(csr=csr, cpe=cpe, costs=costs, gen_adv=gen_adv, n=n, h=h)


def test_rr_width(ti_world):
    csr = ti_world["csr"]
    rr = generate_rr_local(csr, ti_world["cpe"], 200, seed=1)
    w = rr_width(rr, csr)
    indeg = np.diff(csr.in_indptr)
    ex = rr.exploded
    for rr_id in range(0, 200, 23):
        nodes = ex[ex["rr_id"] == rr_id]["node"].to_numpy()
        assert w[rr_id] == indeg[nodes].sum()


def sequential_kpt(gen, csr, k, *, seed, sample_scale):
    """TIM's KptEstimation [67] as written: iteration i draws its c_i sets
    on its own, and the first iteration whose mean κ exceeds 2^-i stops."""
    n, m = csr.n, csr.m
    log2n = max(2, int(math.floor(math.log2(n))))
    spent = 0
    for i in range(1, log2n):
        c_i = max(
            16, int(sample_scale * (6 * math.log(n) + 6 * math.log(log2n)) * 2**i)
        )
        rr = gen(c_i, seed * 7919 + i)
        spent += c_i
        w = rr_width(rr, csr)
        kappa = 1.0 - (1.0 - w / m) ** k
        if kappa.mean() > 1.0 / 2**i:
            return max(1.0, n * float(kappa.sum()) / (2.0 * c_i)), spent
    return 1.0, spent


@pytest.fixture(scope="module")
def dense_csr():
    """Every ordered pair an edge at p = 0.9: each RR set holds nearly every
    node, so κ ≈ 1 and KptEstimation stops at its first iteration."""
    n = 40
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    probs = np.full((2, len(src)), 0.9)
    return build_csr(n, src, dst, probs)


# scenario -> (graph, sample_scale): all iterations in one request; one
# iteration per request, the later ones over a chunk; a stop at iteration 1.
# On ti_world (n = 120) iteration i draws about 79·scale·2^(i-1) sets, so at
# scale _CHUNK/200 the first two together exceed a chunk and the third
# alone does.
KPT_SCENARIOS = {
    "one_group": ("ti", 0.5),
    "alone": ("ti", rrset._CHUNK / 200),
    "first": ("dense", 1.0),
}


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("scenario", list(KPT_SCENARIOS))
def test_kpt_estimation_equals_sequential_tim(ti_world, dense_csr, scenario, k, seed):
    """Grouped draws give TIM's (KPT, spent) bit for bit, and simulate at
    most one chunk of sets beyond those spent."""
    graph, scale = KPT_SCENARIOS[scenario]
    csr = ti_world["csr"] if graph == "ti" else dense_csr
    onehot = np.array([1.0, 0.0])
    requests = []

    def grouped(blocks):
        requests.append(list(blocks))
        # No Spark session: width 0 keeps every request on the driver.
        return instances._generate(None, csr, onehot, blocks, 0.0)

    def one(n_rr, s):
        return generate_rr_local(csr, onehot, n_rr, seed=s)

    got = kpt_estimation(grouped, csr, k, seed=seed, sample_scale=scale)
    want = sequential_kpt(one, csr, k, seed=seed, sample_scale=scale)
    assert got == want
    kpt, spent = got
    # KPT lower-bounds the best size-k spread, which is ≤ n.
    assert 1.0 <= kpt <= csr.n and spent > 0
    simulated = sum(n for blocks in requests for n, _ in blocks)
    assert spent <= simulated <= spent + rrset._CHUNK
    if scenario == "one_group":
        assert len(requests) == 1
        assert len(requests[0]) == math.floor(math.log2(csr.n)) - 1
    elif scenario == "alone":
        assert all(len(blocks) == 1 for blocks in requests)
        assert requests[-1][0][0] > rrset._CHUNK
    else:
        assert spent == requests[0][0][0] and len(requests[0]) > 1


@pytest.mark.parametrize("rule", ["gain", "rate"])
def test_ti_rm_runs_and_conservative(ti_world, rule):
    w = ti_world
    budgets = np.array([25.0, 35.0])
    res = ti_rm(
        w["gen_adv"], w["csr"], w["costs"], budgets,
        rule=rule, eps=0.1, sample_scale=0.05, rr_cap=20000, seed=4,
    )
    # Disjoint allocation.
    assert not (res.allocation[0] & res.allocation[1])
    assert res.n_rr_total > 0
    # Conservative feasibility in its own sample space is enforced during
    # the run; spot-check costs alone stay under budget.
    for i in range(2):
        c = sum(w["costs"][i, u] for u in res.allocation[i])
        assert c <= budgets[i] + 1e-9


def test_ti_csrm_selects_more_seeds_than_ti_carm(ti_world):
    """The rate rule picks many cheap seeds; the gain rule few big ones —
    the behaviour behind Fig. 3 and the TI-CSRM slowdown."""
    w = ti_world
    budgets = np.array([25.0, 35.0])
    kw = dict(eps=0.1, sample_scale=0.05, rr_cap=20000, seed=4)
    carm = ti_rm(w["gen_adv"], w["csr"], w["costs"], budgets, rule="gain", **kw)
    csrm = ti_rm(w["gen_adv"], w["csr"], w["costs"], budgets, rule="rate", **kw)
    assert sum(map(len, csrm.allocation)) >= sum(map(len, carm.allocation))
    assert csrm.regenerations >= carm.regenerations
