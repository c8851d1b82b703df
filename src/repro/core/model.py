"""The revenue model the paper's algorithms run against: π̃ over RR sets.

The Section-3 algorithms assume an *influence spread oracle*; Section 4
replaces it with the RR-set estimate ``π̃(·, R)`` (Lemma 4.1), a weighted
coverage function and so monotone submodular. ``CoverageRevenueModel`` is
that estimate over an ``RRCollection``. With a large fixed collection it
*is* the Section-3 oracle (exact over its sample space, so the
approximation-ratio theorems hold exactly there); with RMA's progressive
collections it is the Section-4 estimator. Exact live-edge enumeration,
the tests' oracle for it, lives with the tests (``tests/spread.py``).

``RMProblem`` bundles a model with per-node costs and budgets; every
algorithm takes an ``RMProblem``. ``brute_force_opt`` computes OPT by
exhaustive allocation enumeration for ratio tests.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.celf import EPS, entries, pop_order, rates
from repro.influence.rrset import RRCollection


class _CoverageState:
    """Covered RR sets of an allocation. Every (adv, node) key's count of
    uncovered RR sets is kept current, so a marginal gain is one lookup.

    π̃_i(S_i) is advertiser i's covered count (a Python int) times nΓ/|R|
    (a Python float): the value ``pi_of(i, S_i)`` gives, bit for bit, read
    in O(1). Every selection loop reads it here.

    A state built from an allocation covers each advertiser's sets in one
    pass (the union of its seeds' slices); ``add`` covers one seed's. Both
    give the state an add-by-add replay gives."""

    def __init__(self, model: "CoverageRevenueModel", allocation=None):
        self.model = model
        self.factor = model.factor
        rr = model.rr
        self.covered = np.zeros(rr.n_rr, dtype=bool)
        self.uncovered = model.singleton_counts().astype(np.int64)  # (h, n), a copy
        self.cov_count = [0] * model.h
        if allocation is not None:
            for i, seeds in enumerate(allocation):
                if seeds:
                    self._cover(i, np.unique(rr.rr_ids_of(i, seeds)))

    def gain(self, u: int, i: int) -> float:  # π̃_i(u | S_i)
        return float(self.uncovered[i, u]) * self.factor

    def gains(self, advs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """``gain`` of each element (nodes[k], advs[k]), bit for bit."""
        return self.uncovered[advs, nodes] * self.factor

    def add(self, u: int, i: int) -> None:
        self._cover(i, self.model.rr.rr_ids_for(u, i))

    def _cover(self, i: int, ids: np.ndarray) -> None:
        """Cover advertiser i's sets ``ids`` (each id at most once)."""
        ids = ids.astype(np.intp, copy=False)  # one cast for every gather below
        newly = ids[~self.covered[ids]]
        if len(newly) == 0:
            return
        rr = self.model.rr
        self.covered[newly] = True
        self.cov_count[i] += len(newly)
        # The newly covered sets are all advertiser i's: each of their
        # members' keys loses one uncovered set.
        self.uncovered[i] -= np.bincount(rr.members_of(newly), minlength=rr.n)

    def pi_i(self, i: int) -> float:  # π̃_i(S_i)
        return self.cov_count[i] * self.factor


class CoverageRevenueModel:
    """π̃(·, R) = nΓ·coverage/|R| over an RR collection."""

    def __init__(self, rr: RRCollection):
        self.rr = rr
        self.n = rr.n
        self.h = rr.h
        self.cpe = rr.cpe
        self.factor = rr.factor
        self._singleton = None

    def singleton_counts(self) -> np.ndarray:  # (h, n) of |{R of i ∋ u}|
        """Read off the key-major index, which selection reads anyway, in
        O(h·n). ``rr.singleton_cover_counts`` counts every member instead:
        on the 100 models of a `lastfm_lite` TI cell that added 15 ms to
        its 1.0 s of CPU."""
        return np.diff(self.rr.key_ptr).reshape(self.h, self.n)

    def singleton_pi(self) -> np.ndarray:  # (h, n) of π̃_i({u})
        if self._singleton is None:
            self._singleton = self.singleton_counts().astype(np.float64) * self.factor
        return self._singleton

    def pi_of(self, i: int, nodes) -> float:  # stateless π̃_i(S)
        return float(self.rr.covered_count(i, nodes)) * self.factor

    def pi_alloc(self, allocation) -> float:  # Σ_i π̃_i(S_i)
        return float(sum(self.pi_of(i, allocation[i]) for i in range(self.h)))

    def state(self, allocation=None) -> _CoverageState:
        return _CoverageState(self, allocation)


@dataclass
class RMProblem:
    """Model + budget data for one RM instance (possibly in sampling space).

    The selection algorithms cache derived data on the problem (presorted
    CELF entries, cost rows), so costs and budgets are fixed once an
    algorithm has run on it.
    """

    model: CoverageRevenueModel
    costs: np.ndarray  # (h, n)
    budgets: np.ndarray  # (h,)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=np.float64)
        self.budgets = np.asarray(self.budgets, dtype=np.float64)

    def initial_order(self, key: str) -> list:
        """Line 1 of Algorithms 2–3 as presorted CELF entries: every element
        with c_j(v) + π_j({v}) ≤ B_j, keyed by singleton gain or rate.
        Sorted once per problem and shared (read-only) by every run."""
        return self._initial(key)[0]

    def initial_columns(self, key: str) -> tuple:
        """``initial_order(key)``'s elements as numpy columns in the same
        order: (nodes, advertisers, singleton gains π_j({v}), costs c_j(v))."""
        return self._initial(key)[1]

    def _initial(self, key: str) -> tuple:
        if key not in self._cache:
            sp = self.model.singleton_pi()
            advs, nodes = np.nonzero(self.costs + sp <= self.budgets[:, None] + EPS)
            g0, c = sp[advs, nodes], self.costs[advs, nodes]
            keys = g0 if key == "gain" else rates(g0, c)
            o = pop_order(keys, nodes, advs)
            cols = (nodes[o], advs[o], g0[o], c[o])
            self._cache[key] = (entries(keys[o], cols[0], cols[1]), cols)
        return self._cache[key]

    def cost_rows(self) -> list:
        """``costs`` as nested lists of floats, for scalar reads in loops."""
        if "cost_rows" not in self._cache:
            self._cache["cost_rows"] = self.costs.tolist()
        return self._cache["cost_rows"]

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def h(self) -> int:
        return self.model.h

    @property
    def cpe(self) -> np.ndarray:
        return self.model.cpe

    def cost_of(self, i: int, nodes) -> float:
        return float(sum(self.costs[i, int(u)] for u in nodes))

    def is_feasible(self, allocation, *, slack: float = 1e-9) -> bool:
        """Budget + disjointness feasibility of an allocation."""
        seen: set[int] = set()
        for i in range(self.h):
            s = set(int(u) for u in allocation[i])
            if seen & s:
                return False
            seen |= s
            if self.cost_of(i, s) + self.model.pi_of(i, s) > self.budgets[i] + slack:
                return False
        return True


def brute_force_opt(prob: RMProblem) -> tuple[float, list[set]]:
    """Exhaustive OPT over all (h+1)^n allocations. Tiny instances only."""
    n, h = prob.n, prob.h
    assert (h + 1) ** n <= 400_000, "brute force limited to tiny instances"
    best, best_alloc = 0.0, [set() for _ in range(h)]
    for assign in itertools.product(range(h + 1), repeat=n):
        alloc = [set() for _ in range(h)]
        for u, a in enumerate(assign):
            if a > 0:
                alloc[a - 1].add(u)
        ok = True
        total = 0.0
        for i in range(h):
            pi = prob.model.pi_of(i, alloc[i])
            if prob.cost_of(i, alloc[i]) + pi > prob.budgets[i] + 1e-9:
                ok = False
                break
            total += pi
        if ok and total > best:
            best, best_alloc = total, alloc
    return best, best_alloc
