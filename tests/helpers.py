"""Shared test utilities: random coverage instances + reference algorithms.

The reference implementations are deliberately naive O(n²·h) re-statements
of the paper's pseudocode (no CELF, no incremental state); equivalence
tests pin the optimised implementations to them.
"""
from __future__ import annotations

import numpy as np

from repro.core.model import CoverageRevenueModel, RMProblem
from repro.influence.rrset import from_memberships


def random_coverage_problem(
    seed: int,
    *,
    n: int = 7,
    h: int = 2,
    n_rr: int = 40,
    max_rr_size: int = 3,
    budget_range=(2.0, 8.0),
    cost_range=(0.2, 2.0),
):
    """A small random RM instance whose model is an exact coverage oracle."""
    g = np.random.default_rng(seed)
    cpe = g.uniform(0.5, 2.0, size=h)
    memberships = []
    for _ in range(n_rr):
        adv = int(g.integers(0, h))
        size = int(g.integers(1, max_rr_size + 1))
        nodes = set(int(x) for x in g.choice(n, size=size, replace=False))
        memberships.append((adv, nodes))
    rr = from_memberships(n, cpe, memberships)
    model = CoverageRevenueModel(rr)
    costs = g.uniform(*cost_range, size=(h, n))
    budgets = g.uniform(*budget_range, size=h)
    return RMProblem(model, costs, budgets)


def naive_greedy(prob: RMProblem, candidates, i: int):
    """Reference Algorithm 1 — literal pseudocode, no laziness."""
    model, costs, B = prob.model, prob.costs, float(prob.budgets[i])
    sp = model.singleton_pi()
    U = [int(v) for v in candidates if costs[i, v] + sp[i, v] <= B + 1e-12]
    S: set[int] = set()
    D: set[int] = set()
    while U and not D:
        best_u, best_r, best_g = None, -1.0, 0.0
        for v in U:
            g = model.pi_of(i, S | {v}) - model.pi_of(i, S)
            r = g / (costs[i, v] + g) if costs[i, v] + g > 0 else 0.0
            if r > best_r + 1e-12:
                best_u, best_r, best_g = v, r, g
        U.remove(best_u)
        if prob.cost_of(i, S | {best_u}) + model.pi_of(i, S | {best_u}) <= B + 1e-12:
            S = S | {best_u}
        else:
            D = {best_u}
    pi_s, pi_d = model.pi_of(i, S), model.pi_of(i, D)
    return (D, S, D) if pi_d > pi_s else (S, S, D)


def naive_threshold_greedy_main_loop(prob: RMProblem, gamma: float):
    """Reference main loop of Algorithm 2 (lines 1–8), literal pseudocode.

    Returns (S⃗, D⃗, I) before the Greedy/Fill post-processing, which is
    where the CELF subtleties live.
    """
    model, costs, B = prob.model, prob.costs, prob.budgets
    h, n = prob.h, prob.n
    sp = model.singleton_pi()
    M = [
        (v, j)
        for j in range(h)
        for v in range(n)
        if costs[j, v] + sp[j, v] <= B[j] + 1e-12
    ]
    S = [set() for _ in range(h)]
    D = [set() for _ in range(h)]
    I: set[int] = set()
    while M and len(I) < h:
        best, best_g = None, -1.0
        for v, j in M:
            g = model.pi_of(j, S[j] | {v}) - model.pi_of(j, S[j])
            if g > best_g + 1e-12:
                best, best_g = (v, j), g
        u, i = best
        M.remove(best)
        g = model.pi_of(i, S[i] | D[i] | {u}) - model.pi_of(i, S[i] | D[i])
        r = g / (costs[i, u] + g) if costs[i, u] + g > 0 else 0.0
        if (gamma > 0 and r < gamma / B[i] - 1e-12) or D[i]:
            continue
        used = set().union(*S, *D)
        if u in used:
            continue
        if prob.cost_of(i, S[i] | {u}) + model.pi_of(i, S[i] | {u}) <= B[i] + 1e-12:
            S[i].add(u)
        else:
            D[i] = {u}
            I.add(i)
    return S, D, I
