"""TI-CARM / TI-CSRM — the practical algorithms of Aslay et al. [5].

Structure (per [5] and the complexity analysis in Appendix C):

- one RR collection *per advertiser* (non-uniform sampling — the §4.2
  strawman), sized by TIM's θ = λ*/KPT for the current latent seed size;
- latent seed sizes start at s_i = 1 and double whenever |S_i| reaches
  s_i, each doubling re-running KptEstimation and regenerating the
  advertiser's collection at the larger θ;
- greedy selection by marginal gain (TI-CARM) or marginal rate (TI-CSRM),
  with *conservative* budget feasibility — the estimated revenue is
  inflated by (1+ε) before being charged against the budget, which is how
  [5] guarantees feasibility from a sample and why their allocations
  under-utilise the budget (§2.2.1 limitation (iv));
- an advertiser closes when its chosen element would overshoot.

The per-advertiser θ is what makes these algorithms memory- and
time-hungry as ε shrinks (the paper's Fig. 4); the doubling regenerations
are why TI-CSRM — which selects many cheap seeds — is the slowest.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.tim import kpt_estimation, tim_theta
from repro.core.celf import EPS, celf, presorted, push_all, rates
from repro.core.model import CoverageRevenueModel
from repro.graphs.csr import CSRGraph
from repro.influence.rrset import RRCollection


@dataclass
class TIResult:
    allocation: list
    n_rr_total: int
    regenerations: int
    diagnostics: dict = field(default_factory=dict)


class _AdvSample:
    """Per-advertiser RR collection and θ bookkeeping (latent seed size,
    epoch, sets spent). Coverage over ``rr`` is the caller's."""

    def __init__(
        self, gen, csr, eps, ell, sample_scale, rr_cap, seed, max_latent,
    ):
        self.gen = gen  # gen(n_rr, seed) -> RRCollection for this adv
        self.csr = csr
        self.eps = eps
        self.ell = ell
        self.scale = sample_scale
        self.rr_cap = rr_cap
        self.seed = seed
        self.max_latent = max_latent
        self.s_latent = 1
        self.epoch = 0
        self.spent = 0
        self.regens = 0
        self.rr = self._sample()

    def _theta(self) -> int:
        kpt, spent = kpt_estimation(
            self.gen,
            self.csr,
            self.s_latent,
            ell=self.ell,
            seed=self.seed + 31 * self.epoch,
            sample_scale=self.scale,
        )
        self.spent += spent
        theta = int(
            self.scale * tim_theta(self.csr.n, self.s_latent, self.eps, self.ell, kpt)
        )
        theta = max(theta, 256)
        if self.rr_cap is not None:
            theta = min(theta, self.rr_cap)
        return theta

    def _sample(self) -> RRCollection:
        theta = self._theta()
        self.spent += theta
        return self.gen(theta, self.seed + 997 * self.epoch + 1)

    def maybe_double(self, n_seeds: int) -> bool:
        """Double the latent seed size and regenerate ``rr`` when |S_i|
        reaches it."""
        if n_seeds < self.s_latent:
            return False
        if self.max_latent is not None and self.s_latent >= self.max_latent:
            return False
        self.s_latent *= 2
        self.epoch += 1
        self.rr = self._sample()
        self.regens += 1
        return True


def ti_rm(
    rr_gen_adv,
    csr: CSRGraph,
    costs: np.ndarray,
    budgets: np.ndarray,
    *,
    rule: str,
    eps: float = 0.1,
    ell: float = 1.0,
    sample_scale: float = 1.0,
    rr_cap: int | None = None,
    seed: int = 11,
    max_latent: int | None = 32,
) -> TIResult:
    """Run TI-CARM (rule="gain") or TI-CSRM (rule="rate").

    ``rr_gen_adv(adv, n_rr, seed)`` generates RR sets with advertiser
    ``adv``'s probabilities only, under the one-hot cpe vector that carries
    cpe_i: π̂_i is coverage over that collection. ``max_latent`` caps the
    latent-seed-size doubling (regenerations stop once s_i reaches it) — a
    runtime bound for the scaled-down reproduction; set None for unbounded
    TIM behaviour.
    """
    assert rule in ("gain", "rate")
    costs = np.asarray(costs, dtype=np.float64)
    budgets = np.asarray(budgets, dtype=np.float64)
    h = len(budgets)
    samples = [
        _AdvSample(
            lambda n_rr, s, i=i: rr_gen_adv(i, n_rr, s),
            csr,
            eps,
            ell,
            sample_scale,
            rr_cap,
            seed + 17 * i,
            max_latent,
        )
        for i in range(h)
    ]
    alloc = [set() for _ in range(h)]

    def coverage(i):
        """Coverage state of S_i on advertiser i's current sample."""
        state = CoverageRevenueModel(samples[i].rr).state()
        for u in alloc[i]:
            state.add(u, i)
        return state

    states = [coverage(i) for i in range(h)]
    spend = np.zeros(h)
    used: set[int] = set()
    closed: set[int] = set()
    epoch_of = [0] * h

    def entries(i):
        """Advertiser i's feasible unused nodes on its current sample,
        tagged with its epoch (entries of older epochs are skipped)."""
        g0 = states[i].model.singleton_pi()[i]
        ok = costs[i] + (1.0 + eps) * g0 <= budgets[i] + EPS
        ok[list(used)] = False
        nodes = np.flatnonzero(ok)
        keys = g0[nodes] if rule == "gain" else rates(g0[nodes], costs[i, nodes])
        return presorted(keys, nodes, np.full(len(nodes), i), epoch_of[i])

    def visit(u, i, g):
        # Conservative feasibility: inflate the revenue estimate by (1+ε).
        pi = states[i].pi_i(i)
        if spend[i] + costs[i, u] + (1.0 + eps) * (pi + g) <= budgets[i] + EPS:
            states[i].add(u, i)
            alloc[i].add(u)
            used.add(u)
            spend[i] += costs[i, u]
            if samples[i].maybe_double(len(alloc[i])):
                states[i] = coverage(i)
                epoch_of[i] += 1
                push_all(heap, entries(i))
        else:
            closed.add(i)

    heap: list = []  # epoch re-pushes
    celf(
        sorted(e for i in range(h) for e in entries(i)),
        lambda u, i: states[i].gain(u, i),
        visit,
        used=used,
        closed=closed,
        n_open=h,
        rate_costs=costs.tolist() if rule == "rate" else None,
        skip=lambda top: top[3] != epoch_of[top[2]],
        heap=heap,
    )
    return TIResult(
        allocation=alloc,
        n_rr_total=int(sum(s.spent for s in samples)),
        regenerations=int(sum(s.regens for s in samples)),
        diagnostics={
            "latent_sizes": [s.s_latent for s in samples],
            "collection_sizes": [s.rr.n_rr for s in samples],
        },
    )
