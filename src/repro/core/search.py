"""Algorithm 4: Search(τ, b_min) — binary search for a good threshold γ.

Maintains [γ₁, γ₂] with ThresholdGreedy(γ₁) depleting ≥ b_min budgets and
ThresholdGreedy(γ₂) depleting fewer; halves the interval until
(1+τ)γ₁ ≥ γ₂ or γ₂ ≤ min_i cpe(i)/(h+6), and returns the best allocation
seen plus both endpoint runs (SeekUB consumes the endpoints in §4.4).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import RMProblem
from repro.core.threshold_greedy import TGResult, fill_all, threshold_greedy


def gamma_max(prob: RMProblem) -> float:
    """Eqn (6): γ_max = max{B_j · ζ_j(v|∅) : v ∈ V, j ∈ [h]}."""
    sp = prob.model.singleton_pi()
    denom = prob.costs + sp
    with np.errstate(divide="ignore", invalid="ignore"):
        zeta = np.where(denom > 0, sp / denom, 0.0)
    return float((prob.budgets[:, None] * zeta).max())


@dataclass
class SearchResult:
    allocation: list  # S⃗* — best over all tested thresholds
    pi_star: float
    t1: TGResult | None  # ThresholdGreedy(γ₁) with b₁ ≥ b_min
    pi1: float | None  # π(T⃗₁*), its π after Fill
    gamma1: float
    t2: TGResult | None  # ThresholdGreedy(γ₂) with b₂ < b_min
    pi2: float | None  # π(T⃗₂*)
    gamma2: float
    b_min: int


def search(prob: RMProblem, tau: float, b_min: int) -> SearchResult:
    """Run Algorithm 4."""
    assert b_min in (1, 2)
    h = prob.h
    g2 = (1.0 + tau) * gamma_max(prob)
    g1 = 0.0
    gamma = g1
    j1: int | None = None  # runs[j1] is T₁, runs[j2] is T₂
    j2: int | None = None
    runs: list[TGResult] = []
    stop_floor = float(prob.cpe.min()) / (h + 6)
    while True:
        res = threshold_greedy(prob, gamma)
        if res.b >= b_min:
            j1, g1 = len(runs), gamma
        else:
            j2, g2 = len(runs), gamma
        runs.append(res)
        gamma = (g1 + g2) / 2.0
        if (1.0 + tau) * g1 >= g2 or g2 <= stop_floor:
            break
    # The next γ depends only on the main loop's b, never on Fill, so the
    # runs' Fills are independent: fill them all at once, then pick the
    # first run of the highest π.
    filled = fill_all(prob, [r.start for r in runs])
    pis = [pi for _, pi in filled]
    best = pis.index(max(pis))
    return SearchResult(
        allocation=filled[best][0],
        pi_star=pis[best],
        t1=None if j1 is None else runs[j1],
        pi1=None if j1 is None else pis[j1],
        gamma1=g1,
        t2=None if j2 is None else runs[j2],
        pi2=None if j2 is None else pis[j2],
        gamma2=g2,
        b_min=b_min,
    )
