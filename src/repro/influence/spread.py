"""Influence-spread computation three ways (cross-validated in tests).

- ``exact_spread_enum``: exact σ by enumerating all 2^m live-edge worlds
  (``live_edge_worlds``, shared with the exact revenue model) — ground
  truth on tiny graphs, used to certify the other two.
- ``mc_spread_local``: forward IC Monte-Carlo on the driver (out-CSR).
- ``mc_spread_spark``: Pregel-style forward propagation as iterative
  DataFrame joins — the distributed evaluation path. Edge coin flips are
  deterministic per (run, edge) via ``xxhash64``, so each edge is consistent
  across BFS rounds and the whole simulation is reproducible in ``seed``.
"""
from __future__ import annotations

from collections import deque

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import SparkSession

from repro.graphs.csr import CSRGraph


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


def mc_spread_local(
    csr: CSRGraph, adv: int, seeds, n_runs: int, *, seed: int
) -> float:
    """Forward IC Monte-Carlo over out-CSR on the driver."""
    rng = np.random.default_rng(seed)
    adv_row = 0 if csr.shared_probs else adv
    seeds = list(seeds)
    total = 0
    active = np.zeros(csr.n, dtype=bool)
    for _ in range(n_runs):
        active[:] = False
        active[seeds] = True
        frontier = list(seeds)
        count = len(seeds)
        while frontier:
            new = []
            for v in frontier:
                lo, hi = csr.out_indptr[v], csr.out_indptr[v + 1]
                if hi == lo:
                    continue
                pr = csr.out_probs[adv_row, lo:hi]
                hit = csr.out_indices[lo:hi][rng.random(hi - lo) < pr]
                for w in hit:
                    if not active[w]:
                        active[w] = True
                        new.append(int(w))
            count += len(new)
            frontier = new
        total += count
    return total / n_runs


def _coin(seed: int):
    """Deterministic uniform in [0,1) per (run, src, dst) row."""
    h = F.xxhash64(F.col("run"), F.col("src"), F.col("dst"), F.lit(seed))
    return F.pmod(h, F.lit(1 << 30)).cast("double") / float(1 << 30)


def mc_spread_spark(
    spark: SparkSession,
    edges_pdf: pd.DataFrame,
    seeds,
    n_runs: int,
    *,
    seed: int,
    max_rounds: int = 64,
) -> float:
    """Distributed forward IC: iterative frontier-join propagation.

    ``edges_pdf`` has columns (src, dst, p). Each (run, edge) pair flips a
    single deterministic coin; a run's live subgraph is therefore fixed, and
    the loop is plain BFS over it expressed as DataFrame joins.
    """
    seeds = list(seeds)
    if not seeds:
        return 0.0
    edges = spark.createDataFrame(edges_pdf[["src", "dst", "p"]]).cache()
    runs = spark.range(n_runs).select(F.col("id").alias("run"))
    seed_df = spark.createDataFrame(pd.DataFrame({"node": seeds}))
    active = runs.crossJoin(seed_df).localCheckpoint()
    frontier = active
    for _ in range(max_rounds):
        msgs = (
            frontier.join(edges, frontier["node"] == edges["src"])
            .where(_coin(seed) < F.col("p"))
            .select("run", F.col("dst").alias("node"))
            .distinct()
        )
        new = msgs.join(active, ["run", "node"], "left_anti").localCheckpoint()
        if new.isEmpty():
            break
        active = active.union(new).localCheckpoint()
        frontier = new
    total = active.count()
    edges.unpersist()
    return total / n_runs
