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
current maximum is exactly the paper's semantics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.celf import EPS, Ledger, rate
from repro.core.greedy import greedy
from repro.core.model import RMProblem


@dataclass
class TGResult:
    allocation: list  # S⃗* after Fill
    b: int  # number of budget-depleted advertisers |I|
    s_sets: list  # S_j from the main loop
    d_sets: list  # D_j stopple singletons
    a_sets: list  # A_j from the single-depleted-advertiser Greedy call
    pi_star: float  # π(S⃗*) under the problem's model


def threshold_greedy(prob: RMProblem, gamma: float) -> TGResult:
    """Run Algorithm 2 under threshold γ; returns the filled allocation."""
    h = prob.h
    ledger = Ledger(prob)
    costs = ledger.costs
    with np.errstate(divide="ignore", invalid="ignore"):  # B_i = 0 is allowed
        floor = (gamma / prob.budgets - EPS).tolist()  # γ/B_i
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

    ledger.run(prob.initial_order("gain"), visit)
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
    filled = fill(prob, best)
    return TGResult(
        allocation=filled,
        b=len(depleted),
        s_sets=s_sets,
        d_sets=d_sets,
        a_sets=a_sets,
        pi_star=prob.model.pi_alloc(filled),
    )


def fill(prob: RMProblem, allocation) -> list:
    """Algorithm 3: greedily top up by marginal rate until budgets deplete."""
    ledger = Ledger(prob, allocation)
    spend, pi_i, costs, caps = ledger.spend, ledger.pi_i, ledger.costs, ledger.caps

    def overshoots(top):
        # Cost alone already overshoots: the gain cannot help, and spend
        # and π only grow, so the element could never be selected.
        u, i = top[1], top[2]
        return spend[i] + costs[i][u] + pi_i(i) > caps[i]

    def visit(u, i, g):  # select if it fits, else drop the element
        if ledger.fits(u, i, g):
            ledger.select(u, i)

    ledger.run(prob.initial_order("rate"), visit, by_rate=True, skip=overshoots)
    return ledger.alloc
