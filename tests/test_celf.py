"""The CELF engine against a plain eager greedy.

The eager reference re-evaluates every live element at every step and
visits the maximum by (key desc, node asc, advertiser asc) — the order the
engine's heap entries encode. The instances are built with deliberate gain
ties: every RR set has a mirror image under the node swap 2k ↔ 2k+1 and a
copy for the other advertiser, and costs come from a two-value set shared by
both advertisers, so equal keys between nodes and between advertisers are
common and the tie-break is exercised.
"""
import numpy as np
import pytest

from repro.baselines.cs_greedy import ca_greedy, cs_greedy
from repro.baselines.ti_carm import _AdvSample, ti_rm
from repro.core.greedy import greedy
from repro.core.model import CoverageRevenueModel, RMProblem
from repro.core.threshold_greedy import fill, threshold_greedy
from repro.graphs.csr import build_csr
from repro.influence.rrset import from_memberships

EPS = 1e-12


def _rate(g, c):
    return g / (c + g) if c + g > 0 else 0.0


def _mirror(nodes):
    return {v ^ 1 for v in nodes}


def tied_memberships(g, n, h, n_base, adv=None, p=None):
    """RR sets in mirrored pairs (and, unless ``adv`` is fixed, copied to
    every advertiser), so singleton gains tie in pairs. ``p`` weights the
    nodes."""
    out = []
    for _ in range(n_base):
        size = int(g.integers(1, 4))
        nodes = set(int(x) for x in g.choice(n, size=size, replace=False, p=p))
        for a in ([adv] if adv is not None else range(h)):
            out += [(a, nodes), (a, _mirror(nodes))]
    return out


def tied_problem(seed, *, n=8, h=2, n_base=12, budget_range=(2.0, 7.0)):
    g = np.random.default_rng(seed)
    cpe = np.full(h, 1.0)
    rr = from_memberships(n, h, cpe, tied_memberships(g, n, h, n_base))
    node_cost = g.choice([0.4, 0.9], size=n)
    costs = np.tile(node_cost, (h, 1))
    budgets = g.uniform(*budget_range, size=h)
    return RMProblem(CoverageRevenueModel(rr), costs, budgets)


def has_ties(prob):
    sp = prob.model.singleton_pi()
    flat = sp[sp > 0]
    return len(np.unique(flat)) < len(flat)


# ---------------------------------------------------------------------------
# Eager reference
# ---------------------------------------------------------------------------


class Eager:
    """Plain greedy over (node, adv) elements with the paper's bookkeeping."""

    def __init__(self, prob, allocation=None):
        self.prob = prob
        self.alloc = [set(s) for s in allocation] if allocation else [set() for _ in range(prob.h)]
        self.state = prob.model.state(self.alloc)
        self.used = set().union(*self.alloc)
        self.closed = set()
        self.spend = [prob.cost_of(i, self.alloc[i]) for i in range(prob.h)]
        self.pi = [self.state.pi_i(i) for i in range(prob.h)]

    def key(self, u, i, by_rate):
        g = self.state.gain(u, i)
        return _rate(g, float(self.prob.costs[i, u])) if by_rate else g

    def run(self, elements, visit, *, by_rate, n_open=None):
        live = set(elements)
        n_open = self.prob.h if n_open is None else n_open
        while len(self.closed) < n_open:
            live = {(u, i) for u, i in live if u not in self.used and i not in self.closed}
            if not live:
                break
            u, i = min(live, key=lambda e: (-self.key(e[0], e[1], by_rate), e[0], e[1]))
            live.discard((u, i))
            visit(u, i, self.state.gain(u, i))

    def fits(self, u, i, g):
        c = self.prob.costs
        return self.spend[i] + c[i, u] + self.pi[i] + g <= self.prob.budgets[i] + EPS

    def select(self, u, i, g):
        self.state.add(u, i)
        self.alloc[i].add(u)
        self.used.add(u)
        self.spend[i] += self.prob.costs[i, u]
        self.pi[i] += g


def feasible(prob):
    sp = prob.model.singleton_pi()
    return [
        (v, j)
        for j in range(prob.h)
        for v in range(prob.n)
        if prob.costs[j, v] + sp[j, v] <= prob.budgets[j] + EPS
    ]


def eager_greedy(prob, candidates, i):
    e = Eager(prob)
    sp = prob.model.singleton_pi()
    elems = [(v, i) for v in candidates if prob.costs[i, v] + sp[i, v] <= prob.budgets[i] + EPS]
    d = set()

    def visit(u, i, g):
        if e.fits(u, i, g):
            e.select(u, i, g)
        else:
            d.add(u)
            e.closed.add(i)

    e.run(elems, visit, by_rate=True, n_open=1)
    s = e.alloc[i]
    return (set(d) if prob.model.pi_of(i, d) > e.pi[i] else set(s)), s, d


def eager_fill(prob, allocation):
    e = Eager(prob, allocation)

    def visit(u, i, g):
        if e.fits(u, i, g):
            e.select(u, i, g)

    e.run(feasible(prob), visit, by_rate=True)
    return e.alloc


def eager_threshold_greedy(prob, gamma):
    e = Eager(prob)
    d_sets = [set() for _ in range(prob.h)]

    def visit(u, i, g):
        if gamma > 0 and _rate(g, float(prob.costs[i, u])) < gamma / prob.budgets[i] - EPS:
            return
        if e.fits(u, i, g):
            e.select(u, i, g)
        else:
            d_sets[i] = {u}
            e.used.add(u)
            e.closed.add(i)

    e.run(feasible(prob), visit, by_rate=False)
    a_sets = [set() for _ in range(prob.h)]
    if len(e.closed) == 1:
        (i,) = e.closed
        all_s = set().union(*e.alloc)
        a_sets[i] = eager_greedy(prob, [v for v in range(prob.n) if v not in all_s], i)[0]
    best = []
    for j in range(prob.h):
        options = [e.alloc[j], d_sets[j], a_sets[j]]
        best.append(set(options[int(np.argmax([prob.model.pi_of(j, o) for o in options]))]))
    return dict(
        s_sets=e.alloc, d_sets=d_sets, a_sets=a_sets, b=len(e.closed),
        allocation=eager_fill(prob, best),
    )


def eager_by_rule(prob, rule):
    e = Eager(prob)

    def visit(u, i, g):
        if e.fits(u, i, g):
            e.select(u, i, g)
        else:
            e.closed.add(i)

    e.run(feasible(prob), visit, by_rate=rule == "rate")
    return e.alloc


# ---------------------------------------------------------------------------
# Engine == eager reference
# ---------------------------------------------------------------------------

SEEDS = range(12)


def test_instances_have_ties():
    assert all(has_ties(tied_problem(s)) for s in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_greedy_matches_eager(seed):
    prob = tied_problem(seed, h=1, n_base=14)
    res = greedy(prob, range(prob.n), 0)
    seeds, s_ref, d_ref = eager_greedy(prob, range(prob.n), 0)
    assert (res.seeds, res.s_set, res.d_set) == (seeds, s_ref, d_ref)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("gamma_frac", [0.0, 0.05, 0.2, 0.5, 2.0])
def test_threshold_greedy_matches_eager(seed, gamma_frac):
    prob = tied_problem(seed, h=3, n_base=10)
    gamma = gamma_frac * float(prob.budgets.min())
    res = threshold_greedy(prob, gamma)
    ref = eager_threshold_greedy(prob, gamma)
    assert res.s_sets == ref["s_sets"]
    assert res.d_sets == ref["d_sets"]
    assert res.a_sets == ref["a_sets"]
    assert res.b == ref["b"]
    assert res.allocation == ref["allocation"]


def test_threshold_greedy_single_depleted_path_matches_eager():
    """The |I| = 1 branch (A_i from Algorithm 1) is reached and agrees."""
    hits = 0
    for seed in range(80):
        prob = tied_problem(seed, h=2, n_base=10, budget_range=(1.0, 4.0))
        for gamma_frac in (0.0, 0.1):
            res = threshold_greedy(prob, gamma_frac * float(prob.budgets.min()))
            if res.b != 1 or not any(res.a_sets):
                continue
            hits += 1
            ref = eager_threshold_greedy(prob, gamma_frac * float(prob.budgets.min()))
            assert res.a_sets == ref["a_sets"]
            assert res.allocation == ref["allocation"]
    assert hits >= 3


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("start_frac", [0.0, 0.5, 0.8])
def test_fill_matches_eager(seed, start_frac):
    """Fill from CA-Greedy's allocation under a fraction of the budgets,
    so some advertisers start close to their budget."""
    prob = tied_problem(seed, h=3, n_base=10, budget_range=(3.0, 9.0))
    part = RMProblem(prob.model, prob.costs, start_frac * prob.budgets)
    start = ca_greedy(part)
    assert prob.is_feasible(start)
    assert fill(prob, start) == eager_fill(prob, start)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("rule", ["gain", "rate"])
def test_ca_cs_greedy_match_eager(seed, rule):
    prob = tied_problem(seed, h=3, n_base=10)
    got = ca_greedy(prob) if rule == "gain" else cs_greedy(prob)
    assert got == eager_by_rule(prob, rule)


# ---------------------------------------------------------------------------
# TI-CARM / TI-CSRM selection
# ---------------------------------------------------------------------------


def ti_world(n=10, h=2):
    src = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 2])
    dst = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 5, 7])
    csr = build_csr(n, src, dst, np.full((1, len(src)), 0.3), h=h, shared_probs=True)
    cpe = np.array([1.0, 1.0])

    def gen_adv(adv, n_rr, seed):
        g = np.random.default_rng(seed)
        onehot = np.zeros(h)
        onehot[adv] = cpe[adv]
        # Node popularity differs between samples, so a regeneration can
        # make a node infeasible that an older epoch's entries still hold.
        p = g.dirichlet(np.full(n, 0.5))
        mem = tied_memberships(g, n, h, (n_rr + 1) // 2, adv=adv, p=p)[:n_rr]
        return from_memberships(n, h, onehot, mem)

    node_cost = np.random.default_rng(5).choice([0.5, 1.0], size=n)
    return csr, gen_adv, np.tile(node_cost, (h, 1))


KW = dict(eps=0.1, ell=1.0, sample_scale=0.05, rr_cap=300, max_latent=4)


def eager_ti(gen_adv, csr, costs, budgets, *, rule, seed):
    """TI selection with its own coverage count: advertiser i's uncovered
    sets among ``rr_ids_for(u, i)`` against a covered mask kept here, times
    the collection's π̃ per set (so both sides round alike)."""
    n, h, eps = csr.n, len(budgets), KW["eps"]
    samples = [
        _AdvSample(
            lambda n_rr, s, i=i: gen_adv(i, n_rr, s), csr, eps, KW["ell"],
            KW["sample_scale"], KW["rr_cap"], seed + 17 * i, KW["max_latent"],
        )
        for i in range(h)
    ]
    alloc, spend = [set() for _ in range(h)], [0.0] * h
    used, closed = set(), set()
    covered, factor = [None] * h, [0.0] * h

    def recount(i):
        rr = samples[i].rr
        covered[i] = np.zeros(rr.n_rr, dtype=bool)
        for u in alloc[i]:
            covered[i][rr.rr_ids_for(u, i)] = True
        factor[i] = CoverageRevenueModel(rr).factor

    def gain(u, i):
        ids = samples[i].rr.rr_ids_for(u, i)
        return int(np.count_nonzero(~covered[i][ids])) * factor[i]

    def pushed(i):
        rr = samples[i].rr
        return {
            (u, i) for u in range(n)
            if u not in used
            and costs[i, u] + (1.0 + eps) * (len(rr.rr_ids_for(u, i)) * factor[i])
            <= budgets[i] + EPS
        }

    def key(u, i):
        g = gain(u, i)
        return g if rule == "gain" else _rate(g, float(costs[i, u]))

    for i in range(h):
        recount(i)
    live = set().union(*(pushed(i) for i in range(h)))
    while len(closed) < h:
        live = {(u, i) for u, i in live if u not in used and i not in closed}
        if not live:
            break
        u, i = min(live, key=lambda e: (-key(*e), e[0], e[1]))
        live.discard((u, i))
        g = gain(u, i)
        pi_hat = int(covered[i].sum()) * factor[i]
        if spend[i] + costs[i, u] + (1.0 + eps) * (pi_hat + g) <= budgets[i] + EPS:
            covered[i][samples[i].rr.rr_ids_for(u, i)] = True
            alloc[i].add(u)
            used.add(u)
            spend[i] += costs[i, u]
            if samples[i].maybe_double(len(alloc[i])):
                recount(i)
                live = {e for e in live if e[1] != i} | pushed(i)
        else:
            closed.add(i)
    return alloc, sum(s.regens for s in samples)


@pytest.mark.parametrize("rule", ["gain", "rate"])
@pytest.mark.parametrize("budget", [2.0, 2.5, 3.0, 4.0, 5.0, 8.0])
@pytest.mark.parametrize("seed", [1, 11, 13])
def test_ti_selection_matches_eager(rule, budget, seed):
    csr, gen_adv, costs = ti_world()
    budgets = np.array([budget, 1.5 * budget])
    res = ti_rm(gen_adv, csr, costs, budgets, rule=rule, seed=seed, **KW)
    alloc, regens = eager_ti(gen_adv, csr, costs, budgets, rule=rule, seed=seed)
    assert res.allocation == alloc
    assert res.regenerations == regens
