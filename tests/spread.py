"""Exact influence spread by live-edge enumeration (tiny graphs only).

Every spread and revenue the program computes is an RR-coverage estimate
(Lemma 4.1, ``repro.influence.rrset`` and ``repro.core.model``). This
module is the tests' oracle for it: ``exact_spread_enum``
enumerates all 2^m live-edge worlds (``live_edge_worlds``) and counts the
nodes each world's BFS (``reached``) reaches from the seeds. Tests check
RR singleton spreads and per-advertiser revenues of multi-node seed sets
against it, and RR-set membership against ``reached`` per world.
"""
from __future__ import annotations

from collections import deque

import numpy as np


def live_edge_worlds(src, dst, probs):
    """Yield (probability, live adjacency) of each live-edge world, worlds
    in bitmask order (bit e set = edge e live); zero-probability worlds are
    skipped. O(2^m) — tiny graphs only."""
    m = len(src)
    for world in range(1 << m):
        p_world = 1.0
        for e in range(m):
            p_world *= probs[e] if (world >> e) & 1 else (1.0 - probs[e])
        if p_world == 0.0:
            continue
        adj: dict[int, list[int]] = {}
        for e in range(m):
            if (world >> e) & 1:
                adj.setdefault(int(src[e]), []).append(int(dst[e]))
        yield p_world, adj


def reached(adj: dict, sources) -> set:
    """Nodes reachable from ``sources`` over adjacency ``adj`` (BFS)."""
    seen = set(sources)
    q = deque(seen)
    while q:
        v = q.popleft()
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                q.append(w)
    return seen


def exact_spread_enum(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    probs: np.ndarray,
    seeds,
) -> float:
    """Exact expected spread by live-edge enumeration. O(2^m) — tiny only."""
    assert len(src) <= 20, "exact enumeration is for tiny graphs"
    seeds = list(seeds)
    if not seeds:
        return 0.0
    total = 0.0
    for p_world, adj in live_edge_worlds(src, dst, probs):
        total += p_world * len(reached(adj, seeds))
    return total
