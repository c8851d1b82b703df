"""Algorithms 2–3: ThresholdGreedy(γ) and Fill (§3.2.1).

ThresholdGreedy pops elements (u, i) in decreasing marginal-*gain* order
(CA-style) but only keeps those whose marginal *rate* clears γ/B_i; the
first budget-overshooting node per advertiser is the stopple node D_i.
If exactly one advertiser depleted its budget, Algorithm 1 is re-run for it
over the unselected nodes (the A_i set of Theorem 3.2's b=1 case). Fill then
greedily tops up every advertiser by marginal rate.

Both run on the CELF engine (``repro.core.celf``) from the problem's cached
presorted entries. An element's skip conditions (node already used,
advertiser depleted, rate below threshold) are all monotone — once true
they stay true — so evaluating them only when the element surfaces as the
current maximum is exactly the paper's semantics. For the same reason an
element that a numpy pass shows to fail one of them at the start is left
out of the order: ThresholdGreedy's elements whose singleton rate is below
the threshold, and Fill's taken nodes and elements whose cost alone
overshoots. Fill also closes an advertiser once its cheapest element
overshoots, and ends when all are closed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress

import numpy as np

from repro.core.celf import EPS, Ledger, presorted, rate, rates
from repro.core.greedy import greedy
from repro.core.model import RMProblem
from repro.forkmap import fork_map


@dataclass
class TGResult:
    """ThresholdGreedy(γ)'s main loop; Fill on ``start`` completes it
    (``fill``, or ``fill_all`` for many runs at once)."""

    start: list  # Line 11: per advertiser the best of {S_j, D_j, A_j}
    b: int  # number of budget-depleted advertisers |I|
    s_sets: list  # S_j from the main loop
    d_sets: list  # D_j stopple singletons
    a_sets: list  # A_j from the single-depleted-advertiser Greedy call


# Fill's work grows with the problem's h·n candidate elements. Below this
# many, forking the Fills costs more than it saves: a Search's 5–6 Fills
# inline against forked over 4 vCPUs, min of 3, on `lastfm_lite`-shaped
# graphs of n = 150 / 300 / 600 / 1300 (h = 10): forked/inline 0.94–3.25 /
# 0.75–0.87 / 0.64–0.67 / 0.54, and 5.4–7.1 on `tiny` (h·n = 180).
_FORK_MIN_ELEMENTS = 3000


def fill_all(prob: RMProblem, starts: list) -> list[tuple[list, float]]:
    """``fill`` from each start. Fill reads only its start, so the starts
    are independent: a problem of at least ``_FORK_MIN_ELEMENTS`` elements
    fills them over the driver's cores (``fork_map``), a smaller one
    inline; the results are the same."""
    one = partial(fill, prob)
    if prob.h * prob.n >= _FORK_MIN_ELEMENTS:
        return fork_map(one, starts)
    return [one(start) for start in starts]


def threshold_greedy(prob: RMProblem, gamma: float) -> TGResult:
    """Run Algorithm 2's main loop under threshold γ (lines 1–11); Fill
    (line 12) is left to the caller."""
    h = prob.h
    ledger = Ledger(prob)
    costs = ledger.costs
    with np.errstate(divide="ignore", invalid="ignore"):  # B_i = 0 is allowed
        floors = gamma / prob.budgets - EPS  # γ/B_i
    order = prob.initial_order("gain")
    if gamma > 0.0:
        # Line 5 drops (u, i) once ζ_i(u|S_i) < γ/B_i. The singleton rate
        # bounds every later one, so an element that fails on it is dropped
        # whenever it surfaces: leave it out of the order.
        nodes, advs, g0, c = prob.initial_columns("gain")
        order = list(compress(order, (rates(g0, c) >= floors[advs]).tolist()))
    floor = floors.tolist()
    d_sets = [set() for _ in range(h)]
    depleted = ledger.closed  # I; ledger.used holds ∪_j S_j ∪ D_j

    def visit(u, i, g):  # (u, i) is the current max-gain element of M
        if gamma > 0.0 and rate(g, costs[i][u]) < floor[i]:
            return  # Line 5: rate below threshold — drop element
        if ledger.fits(u, i, g):
            ledger.select(u, i)
        else:
            d_sets[i] = {u}
            ledger.used.add(u)
            depleted.add(i)

    ledger.run(order, visit)
    s_sets = ledger.alloc
    a_sets = [set() for _ in range(h)]
    a_pi = [0.0] * h
    if len(depleted) == 1:
        i = next(iter(depleted))
        all_s = set().union(*s_sets)
        cand = [v for v in range(prob.n) if v not in all_s]
        res = greedy(prob, cand, i)
        a_sets[i], a_pi[i] = res.seeds, res.pi_star
    # Line 11: per advertiser, the best of {S_j, D_j, A_j}; π̃(S_j) from the
    # main loop's state, π̃(D_j) from the singletons, π̃(A_j) from Greedy.
    sp = prob.model.singleton_pi()
    best = []
    for j in range(h):
        options = [s_sets[j], d_sets[j], a_sets[j]]
        pi_d = float(sp[j, next(iter(d_sets[j]))]) if d_sets[j] else 0.0
        vals = [ledger.pi_i(j), pi_d, a_pi[j]]
        best.append(set(options[int(np.argmax(vals))]))
    return TGResult(
        start=best,
        b=len(depleted),
        s_sets=s_sets,
        d_sets=d_sets,
        a_sets=a_sets,
    )


def fill(prob: RMProblem, start) -> tuple[list, float]:
    """Algorithm 3: from ``start``, greedily top up by marginal rate until
    budgets deplete; returns the filled allocation and its π̃."""
    ledger = Ledger(prob, start)
    spend, pi_i, caps = ledger.spend, ledger.pi_i, ledger.caps
    closed = ledger.closed

    # Both skip rules only become true as the sets grow (spend and π only
    # grow), so elements they hold at the start are left out: a taken node,
    # or a cost that alone overshoots the advertiser's remaining budget.
    nodes, advs, _, c = prob.initial_columns("gain")
    taken = np.zeros(prob.n, dtype=bool)
    taken[list(ledger.used)] = True
    pi0 = np.array([pi_i(i) for i in range(prob.h)])
    over = np.array(spend)[advs] + c + pi0[advs] > np.array(caps)[advs]
    live = ~(taken[nodes] | over)
    nodes, advs, c = nodes[live], advs[live], c[live]
    # An advertiser whose cheapest element overshoots takes no more seeds.
    cheapest = np.full(prob.h, np.inf)
    np.minimum.at(cheapest, advs, c)
    cheapest = cheapest.tolist()

    def close_if_full(i):
        if spend[i] + cheapest[i] + pi_i(i) > caps[i]:
            closed.add(i)

    def overshoots(top):
        return not ledger.fits(top[1], top[2], 0.0)

    def visit(u, i, g):  # select if it fits, else drop the element
        if ledger.fits(u, i, g):
            ledger.select(u, i)
            close_if_full(i)

    for i in range(prob.h):
        close_if_full(i)
    # Start from the marginal rates on the start state, not the stale
    # singleton ones.
    order = presorted(rates(ledger.state.gains(advs, nodes), c), nodes, advs)
    ledger.run(order, visit, by_rate=True, skip=overshoots)
    return ledger.alloc, float(sum(pi_i(i) for i in range(prob.h)))
