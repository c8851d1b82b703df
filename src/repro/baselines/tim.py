"""TIM substrate [67] used by TI-CARM / TI-CSRM (Aslay et al. [5]).

TIM needs (i) a KPT* estimate — a lower bound on the expected spread of an
optimal size-k seed set — obtained by the doubling KptEstimation procedure,
and (ii) the sample size θ = λ*/KPT with
λ* = (8+2ε)·n·(ℓ·ln n + ln C(n,k) + ln 2)/ε², at ℓ = 1 (TIM's success
probability 1 − n^−ℓ, as TI-CARM/TI-CSRM run it).

Per-advertiser collections are generated with the ad's own probabilities
(a one-hot cpe weight vector reuses the uniform-sampling generator), which
is exactly the "straightforward idea" of §4.2 that the paper's uniform
sampling improves on — and part of why the baselines need many more RR
sets than RMA.
"""
from __future__ import annotations

import math

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.influence.rrset import RRCollection


def rr_width(rr: RRCollection, csr: CSRGraph) -> np.ndarray:
    """Per-RR-set width w(R) = Σ_{v∈R} indeg(v) (TIM's κ statistic input)."""
    indeg = np.diff(csr.in_indptr)
    return np.bincount(
        rr.rr_of_members(), weights=indeg[rr.members], minlength=rr.n_rr
    )


def kpt_estimation(
    gen,
    csr: CSRGraph,
    k: int,
    *,
    seed: int = 0,
    sample_scale: float = 1.0,
) -> tuple[float, int]:
    """TIM's KptEstimation: (KPT*, number of RR sets spent).

    ``gen(n_rr, seed)`` generates RR sets for *one* advertiser. Returns a
    lower bound on the optimal size-k spread, and the sampling cost so the
    caller can account for it.
    """
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


def log_binom(n: int, k: int) -> float:
    k = min(max(k, 0), n)
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def tim_theta(n: int, k: int, eps: float, kpt: float) -> float:
    """TIM's θ = (8+2ε)·n·(ℓ·ln n + ln C(n,k) + ln 2)/(ε²·KPT), ℓ = 1."""
    lam = (8.0 + 2.0 * eps) * n * (math.log(n) + log_binom(n, k) + math.log(2.0))
    return lam / (eps**2 * max(kpt, 1.0))
