"""Algorithm 6: RM_without_Oracle — the paper's main algorithm ("RMA").

Progressive sampling in the OPIM-C style: start from two small RR
collections R₁/R₂ of size θ₀, solve on R₁ with RM_with_Oracle under the
inflated budgets (1+ϱ/2)B_i, validate on R₂ (budget feasibility via
Lemma B.7 upper bounds; quality via β = LB(S⃗*)/UB(O⃗) with SeekUB feeding
UB(O⃗)), and double both collections until β ≥ λ−ε and the solution is
feasible, or |R₁| reaches θ_max.

Guarantee (Theorem 4.3): with probability ≥ 1−δ the output satisfies
c_i(S_i*) + π_i(S_i*) ≤ (1+ϱ)B_i for all i and π(S⃗*) ≥ (λ−ε)·OPT.

``sample_scale`` scales θ₀/θ_max uniformly (DESIGN.md § Substitutions);
``rr_cap`` is a hard safety cap on collection sizes. Both default to the
faithful values (1.0 / None).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.bounds import (
    lb_mean,
    mu_per_advertiser,
    theta_bar_max,
    theta_hat_max,
    theta_zero,
    ub_mean,
)
from repro.core.model import CoverageRevenueModel, RMProblem
from repro.core.rm_oracle import approx_ratio, rm_with_oracle
from repro.core.seekub import seek_ub
from repro.influence.rrset import RRCollection

# Bias check, this repository's extension (the paper's Algorithm 6 returns
# at the first β stop; DESIGN.md § Substitutions): before returning, if the
# holdout estimate π̃(S⃗*, R₂) is below ``BIAS_THRESHOLD``·π̃(S⃗*, R₁) (the
# solution overfits R₁), enlarge both collections to ``BIAS_FACTOR``× their
# size and re-solve, within θ_max and ``rr_cap``. It only draws more
# samples, so the guarantee holds; at ``tables.EXP``'s scaled θ it decides
# the `flixster_lite` and `dblp_lite` samples (EXPERIMENTS.md § RMA's bias
# check).
BIAS_THRESHOLD = 0.8
BIAS_FACTOR = 4


@dataclass
class RMAResult:
    allocation: list
    pi_est_r1: float  # π̃(S⃗*, R₁)
    beta: float  # final LB(S⃗*)/UB(O⃗)
    feasible: bool  # R₂ budget check at stop time
    rounds: int
    n_rr_r1: int
    n_rr_r2: int
    theta_max: float
    stopped_by: str  # "beta" | "theta_max" | "cap" | "no_budget"
    index_bytes: int = 0  # R₁ (indexed) + R₂ (RR-major) at return, RRCollection.nbytes
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_rr_total(self) -> int:
        return self.n_rr_r1 + self.n_rr_r2


def rm_without_oracle(
    rr_gen: Callable[[int, int], RRCollection],
    costs: np.ndarray,
    budgets: np.ndarray,
    cpe: np.ndarray,
    *,
    eps: float = 0.02,
    tau: float = 0.1,
    rho: float = 0.1,
    sample_scale: float = 1.0,
    rr_cap: int | None = None,
    seed: int = 7,
) -> RMAResult:
    """Run RMA. ``rr_gen(n_rr, seed)`` produces a fresh RR collection;
    ``costs`` is (h, n) and gives both counts (δ = 1/n). Before returning,
    the bias check may enlarge both collections and re-solve
    (``BIAS_THRESHOLD``, ``BIAS_FACTOR``)."""
    costs = np.asarray(costs, dtype=np.float64)
    budgets = np.asarray(budgets, dtype=np.float64)
    cpe = np.asarray(cpe, dtype=np.float64)
    h, n = costs.shape
    delta = 1.0 / n  # failure probability δ, as in §5.1
    lam = approx_ratio(h, tau)
    delta_p = delta / 4.0

    # A zero-budget advertiser can take no seed (c_i(u) + π_i({u}) ≥ cpe_i
    # > 0), so it gets ∅ and the bounds use the smallest positive budget.
    positive = budgets > 0
    if not positive.any():
        return RMAResult(
            allocation=[set() for _ in range(h)], pi_est_r1=0.0, beta=0.0,
            feasible=True, rounds=0, n_rr_r1=0, n_rr_r2=0, theta_max=0.0,
            stopped_by="no_budget",
        )
    gamma = float(cpe.sum())
    b_min = float(budgets[positive].min())
    mu = mu_per_advertiser(costs, budgets, rho)
    theta_max = max(
        theta_hat_max(n, eps, delta_p, lam, mu),
        theta_bar_max(n, gamma, rho, b_min, delta_p, h, int(mu.max())),
    )
    theta0 = theta_zero(n, gamma, rho, b_min, delta_p, h)
    theta_max *= sample_scale
    theta0 *= sample_scale
    if rr_cap is not None:
        theta_max = min(theta_max, float(rr_cap))
    theta0 = max(64.0, min(theta0, theta_max))
    t_max = max(1, math.ceil(math.log2(max(theta_max / theta0, 2.0))))
    q = math.log((h + 2) * t_max / delta_p)

    n_gamma = n * gamma
    r1 = rr_gen(int(theta0), seed * 1_000_003 + 1)
    r2 = rr_gen(int(theta0), seed * 1_000_003 + 2)
    rounds = 0
    while True:
        rounds += 1
        model1 = CoverageRevenueModel(r1)
        prob1 = RMProblem(model1, costs, (1.0 + rho / 2.0) * budgets)
        res = rm_with_oracle(prob1, tau)
        alloc = res.allocation
        z = seek_ub(res, lam)

        # Validation on R₂: each π̃_i(S_i*, R₂) once, for the Lemma B.7
        # budget check and for π̃(S⃗*, R₂), counted in one RR-major pass, so
        # R₂ is never indexed.
        pi2 = [float(c) * r2.factor for c in r2.covered_counts(alloc)]
        feasible = all(
            ub_mean(pi2[i], r2.n_rr, n_gamma, q)
            <= (1.0 + rho) * budgets[i] - prob1.cost_of(i, alloc[i]) + 1e-9
            for i in range(h)
            if positive[i]  # Algorithm 5 gives a zero budget ∅: no seed fits
        )
        pi2_total = float(sum(pi2))
        lb_s = lb_mean(pi2_total, r2.n_rr, n_gamma, q)
        ub_o = ub_mean(z, r1.n_rr, n_gamma, q)
        beta = lb_s / ub_o if ub_o > 0 else 0.0

        if beta >= lam - eps and feasible:
            stopped = "beta"
        elif r1.n_rr >= theta_max:
            stopped = "theta_max"
        elif rr_cap is not None and r1.n_rr * 2 > rr_cap:
            stopped = "cap"
        else:
            # Drop this round's references to R₁ and R₂ so that each old
            # collection is freed as soon as its merge returns.
            del model1, prob1, res
            r1 = r1.merge(rr_gen(r1.n_rr, seed * 1_000_003 + 100 + 2 * rounds))
            r2 = r2.merge(rr_gen(r2.n_rr, seed * 1_000_003 + 101 + 2 * rounds))
            continue
        # Bias check: re-solve on enlarged collections if the solution
        # does not generalise to R₂. At most a few enlargements, bounded by
        # θ_max and rr_cap.
        if (
            res.pi_star > 0
            and pi2_total < BIAS_THRESHOLD * res.pi_star
            and (rr_cap is None or r1.n_rr * BIAS_FACTOR <= rr_cap)
            and r1.n_rr * BIAS_FACTOR <= max(theta_max, r1.n_rr)
        ):
            extra = r1.n_rr * (BIAS_FACTOR - 1)
            del model1, prob1, res
            r1 = r1.merge(rr_gen(extra, seed * 1_000_003 + 500 + 2 * rounds))
            r2 = r2.merge(rr_gen(extra, seed * 1_000_003 + 501 + 2 * rounds))
            continue
        return RMAResult(
            allocation=alloc,
            pi_est_r1=res.pi_star,
            beta=beta,
            feasible=feasible,
            rounds=rounds,
            n_rr_r1=r1.n_rr,
            n_rr_r2=r2.n_rr,
            theta_max=theta_max,
            stopped_by=stopped,
            index_bytes=r1.nbytes + r2.nbytes,
            diagnostics={
                "lambda": lam,
                "z": z,
                "lb_s": lb_s,
                "ub_o": ub_o,
                "q": q,
                "t_max": t_max,
                "theta0": theta0,
            },
        )
