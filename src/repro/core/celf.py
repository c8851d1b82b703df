"""The one CELF lazy-greedy engine (Leskovec et al., KDD 2007).

Every selection loop in the package — Algorithm 1 (Greedy), Algorithms 2–3
(ThresholdGreedy, Fill), CA/CS-Greedy and TI-CARM/TI-CSRM — pops elements
(u, i) (node u for advertiser i) in decreasing order of a key, the marginal
gain π_i(u|S_i) or the marginal rate ζ_i(u|S_i) = gain/(c_i(u)+gain), and
then selects, stopples, closes the advertiser or drops the element.

Entries are tuples ``(−key, u, i, *tag)``. Python's tuple order breaks
ties between bit-equal keys by node, then advertiser, so the pop order is a
total order on the live entries and every run is deterministic whatever the
heap's layout. Keys that are equal as real numbers but computed on
different collections (TI-CARM/TI-CSRM keep one per advertiser) can differ
by one ulp; the larger float then pops first, whatever the node order. A
stale key is a valid upper bound (gains only shrink as S_i grows, and the
rate is increasing in the gain for a fixed cost), so an element whose fresh
key fell more than ``EPS`` below its stale one is re-pushed; otherwise it is
the current maximum and is handed to the visit rule.

Starting keys need only be such upper bounds: Fill starts from the marginal
rates on its start state, which are re-pushed less often than singleton
rates. A caller may also prefilter its order, leaving out entries that the
skip or visit rule would discard whenever they surfaced (ThresholdGreedy's
rate threshold; Fill's taken nodes and cost-only overshoots). Discarding
changes no state, so the remaining entries pop and are visited in the same
order.
"""
from __future__ import annotations

import heapq

import numpy as np

EPS = 1e-12


def rate(gain: float, cost: float) -> float:
    """ζ = gain/(cost+gain), 0 when the denominator is not positive."""
    denom = cost + gain
    if denom <= 0.0:
        return 0.0
    return gain / denom


def rates(gains: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Element-wise ``rate``, bit-identical to the scalar version."""
    denom = costs + gains
    out = np.zeros_like(denom)
    np.divide(gains, denom, out=out, where=denom > 0.0)
    return out


def pop_order(keys: np.ndarray, nodes: np.ndarray, advs: np.ndarray) -> np.ndarray:
    """The permutation that puts elements in pop order (key descending, then
    node, then advertiser), from one lexsort."""
    return np.lexsort((advs, nodes, -keys))


def entries(keys: np.ndarray, nodes: np.ndarray, advs: np.ndarray, *tag) -> list:
    """Entries ``(−key, u, i, *tag)`` of columns already in pop order."""
    cols = [(-keys).tolist(), nodes.tolist(), advs.tolist()]
    cols += [[t] * len(keys) for t in tag]
    return list(zip(*cols))


def presorted(keys: np.ndarray, nodes: np.ndarray, advs: np.ndarray, *tag) -> list:
    """Entries ``(−key, u, i, *tag)`` in pop order."""
    keys = np.asarray(keys, dtype=np.float64)
    o = pop_order(keys, nodes, advs)
    return entries(keys[o], nodes[o], advs[o], *tag)


def push_all(heap: list, entries: list) -> None:
    for e in entries:
        heapq.heappush(heap, e)


def celf(
    order, gain, visit, *, used, closed, n_open, rate_costs=None, skip=None, heap=None
):
    """Run lazy greedy until no entry is left or ``len(closed)`` reaches
    ``n_open``.

    - ``order``: the starting entries, presorted. The list is only read, so
      one sort can serve many runs. Re-pushed entries go to the binary heap
      ``heap`` (a fresh one unless the visit rule pushes into it too); each
      step pops the smaller of the two heads, which is the pop sequence of
      one heap holding both, with O(1) pops from ``order``.
    - ``gain(u, i)``: the current marginal gain of element (u, i).
    - ``rate_costs``: None keys by gain; per-advertiser cost rows key by
      the rate against ``rate_costs[i][u]``.
    - Skip rule: an entry is discarded before its gain is computed when its
      node is in ``used``, its advertiser is in ``closed``, or ``skip(entry)``
      holds. Each condition must be monotone (once true, true for good), so
      checking it only when the entry surfaces loses nothing.
    - ``visit(u, i, g)``: the visit rule for the current maximum element; it
      selects, stopples, closes or drops, updating ``used``/``closed``, and
      may push new entries into ``heap`` (TI's epoch re-push).
    """
    pop, push = heapq.heappop, heapq.heappush
    heap = [] if heap is None else heap
    pos, end = 0, len(order)
    while (pos < end or heap) and len(closed) < n_open:
        if heap and (pos == end or heap[0] < order[pos]):
            top = pop(heap)
        else:
            top = order[pos]
            pos += 1
        u, i = top[1], top[2]
        if u in used or i in closed or (skip is not None and skip(top)):
            continue
        g = gain(u, i)
        key = g if rate_costs is None else rate(g, rate_costs[i][u])
        if (pos < end or heap) and key < -top[0] - EPS:
            push(heap, (-key,) + top[1:])
            continue
        visit(u, i, g)


class Ledger:
    """Seed sets under construction with c_i(S_i) per advertiser; π_i(S_i)
    is read from the coverage state, the one place it is kept.

    ``select`` is the shared accept step of every coverage-model loop;
    ``fits`` is the budget test c_i(S_i) + c_i(u) + π_i(S_i) + gain ≤ B_i.

    Amounts are Python floats (the same IEEE doubles as numpy's, cheaper
    to index one at a time); ``costs`` is ``prob.cost_rows()``.
    """

    def __init__(self, prob, allocation=None):
        h = prob.h
        if allocation is None:
            allocation = [set() for _ in range(h)]
        self.alloc = [set(s) for s in allocation]
        self.state = prob.model.state(self.alloc)
        self.pi_i = self.state.pi_i
        self.costs = prob.cost_rows()
        self.caps = [float(b) + EPS for b in prob.budgets]
        self.used = set().union(*self.alloc)
        self.closed: set[int] = set()
        self.spend = [prob.cost_of(i, self.alloc[i]) for i in range(h)]

    def fits(self, u: int, i: int, g: float) -> bool:
        return self.spend[i] + self.costs[i][u] + self.pi_i(i) + g <= self.caps[i]

    def select(self, u: int, i: int) -> None:
        self.state.add(u, i)
        self.alloc[i].add(u)
        self.used.add(u)
        self.spend[i] += self.costs[i][u]

    def run(self, order, visit, *, n_open=None, by_rate=False, skip=None) -> None:
        """``celf`` over this ledger's state, sets and costs."""
        celf(
            order,
            self.state.gain,
            visit,
            used=self.used,
            closed=self.closed,
            n_open=len(self.alloc) if n_open is None else n_open,
            rate_costs=self.costs if by_rate else None,
            skip=skip,
        )

