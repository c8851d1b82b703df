"""Algorithm 1: Greedy(U, i) — single-advertiser 1/3-approximation (Thm 3.1).

Selects by maximum marginal *rate* ζ_i(v|S_i) = π_i(v|S_i)/(c_i(v)+π_i(v|S_i))
until the first node whose addition would overshoot B_i (the "stopple node",
kept in D_i); returns the better of S_i and D_i.

Selection is the CELF engine (``repro.core.celf``) keyed by rate: ζ is
monotone increasing in the marginal gain for fixed cost, and gains only
shrink as S_i grows (submodularity), so a stale rate is a valid upper bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.celf import EPS, Ledger, presorted, rates
from repro.core.model import RMProblem


@dataclass
class GreedyResult:
    seeds: set  # S_i* — the better of S_i and D_i
    s_set: set
    d_set: set
    pi_star: float


def greedy(prob: RMProblem, candidates, i: int) -> GreedyResult:
    """Run Algorithm 1 for advertiser ``i`` over candidate nodes."""
    costs, sp = prob.costs, prob.model.singleton_pi()
    # Line 1: drop nodes that are infeasible on their own.
    nodes = np.fromiter((int(v) for v in candidates), dtype=np.int64)
    g0 = sp[i, nodes]
    ok = costs[i, nodes] + g0 <= prob.budgets[i] + EPS
    nodes, g0 = nodes[ok], g0[ok]
    order = presorted(rates(g0, costs[i, nodes]), nodes, np.full(len(nodes), i))
    ledger = Ledger(prob)
    d_set: set[int] = set()

    def visit(u, i, g):  # select-or-stopple; the stopple ends the run
        if ledger.fits(u, i, g):
            ledger.select(u, i)
        else:
            d_set.add(u)
            ledger.closed.add(i)

    ledger.run(order, visit, n_open=1, by_rate=True)
    s_set, pi_s = ledger.alloc[i], ledger.pi_i(i)
    pi_d = float(sp[i, next(iter(d_set))]) if d_set else 0.0  # D_i is a singleton
    if pi_d > pi_s:
        return GreedyResult(seeds=set(d_set), s_set=s_set, d_set=d_set, pi_star=pi_d)
    return GreedyResult(seeds=set(s_set), s_set=s_set, d_set=d_set, pi_star=pi_s)
