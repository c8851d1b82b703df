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
from repro.influence.rrset import _CHUNK, RRCollection


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

    ``gen(blocks)`` generates RR sets for *one* advertiser: sets
    0..n_rr-1 of each ``(n_rr, seed)`` block, concatenated. Returns a lower
    bound on the optimal size-k spread, and the sampling cost so the caller
    can account for it.

    Iteration i draws c_i sets at seed·7919+i and stops the procedure when
    its mean κ exceeds 2^-i. Consecutive iterations are drawn in one request
    while their sets fit in one ``_CHUNK`` (16384 sets, one BFS), and an
    iteration larger than that alone; the iterations are then tested in
    order. The sets drawn after the stopping iteration are not counted in
    ``spent``, so KPT and ``spent`` equal those of drawing one iteration at
    a time, at the cost of at most one chunk of speculative sets per call.
    """
    n, m = csr.n, csr.m
    log2n = max(2, int(math.floor(math.log2(n))))
    base = 6 * math.log(n) + 6 * math.log(log2n)
    draws = [  # (c_i, seed_i) of iterations i = 1..log2n-1
        (max(16, int(sample_scale * base * 2**i)), seed * 7919 + i)
        for i in range(1, log2n)
    ]
    spent = 0
    lo = 0
    while lo < len(draws):
        hi = lo + 1
        while hi < len(draws) and sum(c for c, _ in draws[lo : hi + 1]) <= _CHUNK:
            hi += 1
        w = rr_width(gen(draws[lo:hi]), csr)
        start = 0
        for i, (c_i, _) in enumerate(draws[lo:hi], start=lo + 1):
            spent += c_i
            kappa = 1.0 - (1.0 - w[start : start + c_i] / m) ** k
            start += c_i
            if kappa.mean() > 1.0 / 2**i:
                return max(1.0, n * float(kappa.sum()) / (2.0 * c_i)), spent
        lo = hi
    return 1.0, spent


def log_binom(n: int, k: int) -> float:
    k = min(max(k, 0), n)
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def tim_theta(n: int, k: int, eps: float, kpt: float) -> float:
    """TIM's θ = (8+2ε)·n·(ℓ·ln n + ln C(n,k) + ln 2)/(ε²·KPT), ℓ = 1."""
    lam = (8.0 + 2.0 * eps) * n * (math.log(n) + log_binom(n, k) + math.log(2.0))
    return lam / (eps**2 * max(kpt, 1.0))
