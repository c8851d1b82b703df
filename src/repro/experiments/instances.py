"""Dataset presets and problem-instance assembly (§5.1 settings).

Presets are laptop-scale synthetic stand-ins for the paper's datasets
(DESIGN.md § Substitutions). ``lastfm_lite`` matches LastFM's real size;
the others are scaled down, with budgets scaled by the node-count ratio so
budget-to-reachable-revenue ratios are preserved.

Building an instance runs edge generation, TIC/WC probability mixing and
CSR assembly on the driver (numpy), then makes one dedicated RR collection
on the driver (forked over its cores when it spans several chunks), from
which it estimates singleton spreads, then attaches the seed-incentive
costs. It starts no Spark job. That collection's mean set size
(``Instance.width``) routes every later RR request of the instance: inline
or forked on the driver, or to Spark.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np
from pyspark.sql import SparkSession

from repro.costs.incentives import seed_costs
from repro.graphs.csr import CSRGraph, build_csr
from repro.graphs.generators import powerlaw_edges, symmetrize
from repro.graphs.tic import ad_mixtures, tic_probs, tic_topic_entries, wc_probs
from repro.influence.evaluate import singleton_spreads
from repro.influence.rrset import (
    RRCollection,
    generate_rr_collection,
    generate_rr_local,
)

# Where a request runs, by its expected members (sets × the instance's mean
# RR-set width). Seconds on a 4-vCPU VM: one-core driver (best of 2) /
# driver forked over 4 cores / Spark (`local[4]`, warm, RDD fan-out, one
# task per core, raw int32 buffers), the last two the best of 2 runs in
# each of two sessions (3M: one session):
#
#   graph (mean width)           20K             100K            400K            1M              1.43M           3M
#   flixster_lite (4.6)          0.03/0.04/0.25  0.14/0.07/0.30  0.58/0.21/0.53  1.51/0.49/0.77  2.26/0.75/0.99  5.29/1.39/1.77
#   livejournal_lite, WC (15.5)  0.15/0.13/0.29  0.69/0.25/0.46  2.63/0.73/0.96  6.72/1.85/2.06  —               —
#
# A request goes to Spark only when it holds more than ``_SPARK_MIN_MEMBERS``
# and Spark has more cores than the driver may use, which a `local[k]`
# master never has: its executors inherit the driver's CPU affinity, and on
# those shared cores the forked driver is faster at every size measured, up
# to 13.7M members on flixster and 15.5M on the WC graph. A wider cluster
# has not been measured; its stand-in, a one-core driver (first of each
# triple) against `local[4]`, reaches parity at ~1.7M members on flixster
# and ~1.2M on the WC graph, below the split.
_SPARK_MIN_MEMBERS = 2_500_000

# A driver request of at least this many expected members forks its
# 16384-set BFSs over the driver's cores; a smaller one runs inline, as
# forking and reaping the children costs more than it saves. Forked/inline
# time, min of 7 alternating runs, 4-vCPU VM, at 125K / 150K / 200K members:
# tiny (width 1.26) 1.22 / 0.89 / 0.79, lastfm_lite (1.44) 1.01 / 0.80 / 0.65,
# flixster_lite (4.39) 0.93 / 0.78 / 0.62, dblp_lite (6.93) 1.07 / 0.90 / 0.71.
_FORK_MIN_MEMBERS = 150_000


def _spark_outnumbers_driver(spark) -> bool:
    """Whether Spark has more cores than the driver may fork over: never on
    a local master, whose cores are the driver's."""
    return (
        spark is not None
        and not spark.sparkContext.master.startswith("local")
        and spark.sparkContext.defaultParallelism > len(os.sched_getaffinity(0))
    )


def _generate(spark, csr, cpe, blocks, width, kernel="standard") -> RRCollection:
    """Sets 0..n_j-1 of (csr, cpe, kernel, s_j) for each ``(n_j, s_j)`` of
    ``blocks`` in turn, as ``generate_rr_local`` numbers them, in one call.

    A single block whose expected members (sets × ``width``, the instance's
    mean RR-set size) exceed ``_SPARK_MIN_MEMBERS`` runs on Spark if Spark
    outnumbers the driver's cores; every other request, a block list of any
    size included (Spark takes one seed range), runs on the driver, forked
    from ``_FORK_MIN_MEMBERS``. Every path returns the same collection.
    """
    members = sum(n for n, _ in blocks) * width
    if (
        len(blocks) == 1
        and members > _SPARK_MIN_MEMBERS
        and _spark_outnumbers_driver(spark)
    ):
        [(n_rr, seed)] = blocks
        return generate_rr_collection(spark, csr, cpe, n_rr, seed=seed, kernel=kernel)
    return generate_rr_local(
        csr, cpe, blocks, kernel=kernel, fork=members >= _FORK_MIN_MEMBERS
    )


# Paper Table 2 (LastFM at native scale; Flixster budgets at 1/10, 6K–20K →
# 600–2000, as are its nodes). WC presets use uniform budgets as in §5.2.3.
_LASTFM_BUDGETS = [100.0, 120.0, 150.0, 180.0, 220.0, 260.0, 300.0, 370.0, 500.0, 1200.0]
_FLIXSTER_BUDGETS = [600.0, 700.0, 800.0, 900.0, 1000.0, 1000.0, 1100.0, 1200.0, 1500.0, 2000.0]
_TIC_CPES = [1.0, 1.1, 1.2, 1.3, 1.4, 1.6, 1.7, 1.8, 1.9, 2.0]

PRESETS: dict[str, dict] = {
    # density tuned so the positive edge-ad probability fraction matches the
    # paper: 1-(1-d)^L = 0.77 (LastFM) / 0.95 (Flixster) at L=10.
    "lastfm_lite": dict(
        n=1300, m=14700, model="tic", L=10, density=0.137, p_max=0.4,
        h=10, budgets=_LASTFM_BUDGETS, cpes=_TIC_CPES, directed=True, seed=101,
    ),
    "flixster_lite": dict(
        n=3000, m=42500, model="tic", L=10, density=0.26, p_max=0.4,
        h=10, budgets=_FLIXSTER_BUDGETS, cpes=_TIC_CPES, directed=True, seed=102,
    ),
    "dblp_lite": dict(
        n=15000, m=50000, model="wc", h=5, uniform_budget=500.0,
        uniform_cpe=1.0, directed=False, seed=103,
    ),
    "livejournal_lite": dict(
        n=40000, m=600000, model="wc", h=5, uniform_budget=800.0,
        uniform_cpe=1.0, directed=True, seed=104,
    ),
    # Tiny preset for fast integration tests.
    "tiny": dict(
        n=60, m=240, model="tic", L=4, density=0.3, p_max=0.4,
        h=3, budgets=[30.0, 40.0, 50.0], cpes=[1.0, 1.5, 2.0],
        directed=True, seed=105,
    ),
}


@dataclass
class Instance:
    """A fully-assembled RM problem instance."""

    name: str
    cpe: np.ndarray
    budgets: np.ndarray
    csr: CSRGraph
    width: float  # mean RR-set size of the σ collection: routes each request
    sigma1: np.ndarray  # (h, n) singleton spread estimates
    costs: np.ndarray  # (h, n) seeding costs
    alpha: float
    cost_model: str

    @property
    def n(self) -> int:
        return self.csr.n

    @property
    def m(self) -> int:
        return self.csr.m

    @property
    def h(self) -> int:
        return len(self.cpe)

    def rr_gen(self, spark: SparkSession, kernel: str = "standard"):
        """Uniform-sampling RR generator for RMA: gen(n_rr, seed)."""

        def gen(n_rr: int, seed: int) -> RRCollection:
            return _generate(
                spark, self.csr, self.cpe, [(n_rr, seed)], self.width, kernel
            )

        return gen

    def rr_gen_adv(self, spark: SparkSession, kernel: str = "standard"):
        """Per-advertiser RR generator for the TI baselines: gen(adv, blocks)
        for a list of ``(n_rr, seed)`` blocks, made in one call."""

        def gen(adv: int, blocks) -> RRCollection:
            onehot = np.zeros(self.h)
            onehot[adv] = self.cpe[adv]
            return _generate(spark, self.csr, onehot, blocks, self.width, kernel)

        return gen


def preset_edges(cfg: dict):
    """The (src, dst) edge arrays of a preset, both directions if undirected."""
    src, dst = powerlaw_edges(cfg["n"], cfg["m"], seed=cfg["seed"])
    if not cfg["directed"]:
        src, dst = symmetrize(src, dst)
    return src, dst


def _graph_and_probs(cfg: dict):
    """Edges and their probabilities: (h, m) under TIC, (1, m) under WC."""
    src, dst = preset_edges(cfg)
    m = len(src)
    if cfg["model"] == "tic":
        topics = tic_topic_entries(
            m, cfg["L"], seed=cfg["seed"] + 1, density=cfg["density"], p_max=cfg["p_max"]
        )
        phi = ad_mixtures(cfg["h"], cfg["L"], seed=cfg["seed"] + 2)
        probs = tic_probs(topics, phi, m)
    else:
        probs = wc_probs(dst, cfg["n"])[None, :]
    return src, dst, probs


def build_instance(
    spark: SparkSession,
    preset: str,
    *,
    alpha: float = 0.1,
    cost_model: str = "linear",
) -> Instance:
    """Assemble an instance from a preset (no caching — see get_instance).
    Every step runs on the driver; ``spark`` is not used."""
    cfg = PRESETS[preset]
    src, dst, probs = _graph_and_probs(cfg)
    n, h = cfg["n"], cfg["h"]
    if cfg["model"] == "wc":
        budgets = np.full(h, float(cfg["uniform_budget"]))
        cpe = np.full(h, float(cfg["uniform_cpe"]))
    else:
        budgets = np.asarray(cfg["budgets"], dtype=np.float64)
        cpe = np.asarray(cfg["cpes"], dtype=np.float64)
    csr = build_csr(n, src, dst, probs)
    # No width yet to route by: the σ collection gives it.
    rr = generate_rr_local(
        csr, cpe, min(20 * n, 200_000), seed=cfg["seed"] + 77, fork=True
    )
    width = len(rr.members) / rr.n_rr
    sigma1 = singleton_spreads(rr)
    costs = seed_costs(sigma1, alpha, cost_model)
    return Instance(
        name=preset,
        cpe=cpe,
        budgets=budgets,
        csr=csr,
        width=width,
        sigma1=sigma1,
        costs=costs,
        alpha=alpha,
        cost_model=cost_model,
    )


_INSTANCE_CACHE: dict = {}
_EVAL_CACHE: dict = {}


def get_instance(
    spark: SparkSession,
    preset: str,
    *,
    alpha: float = 0.1,
    cost_model: str = "linear",
) -> Instance:
    """Session-cached builder. The expensive parts (graph, probabilities,
    CSR, singleton spreads) are cached per preset, independently of
    (α, cost model), so sweeping α re-derives only the cost matrix."""
    if preset not in _INSTANCE_CACHE:
        _INSTANCE_CACHE[preset] = build_instance(
            spark, preset, alpha=alpha, cost_model=cost_model
        )
    base = _INSTANCE_CACHE[preset]
    if base.alpha == alpha and base.cost_model == cost_model:
        return base
    return replace(
        base,
        costs=seed_costs(base.sigma1, alpha, cost_model),
        alpha=alpha,
        cost_model=cost_model,
    )


def get_eval_rr(
    spark: SparkSession, inst: Instance, *, n_eval: int = 100_000, seed: int = 424242
) -> RRCollection:
    """Independent evaluation collection (the paper's 10^7-RR analogue)."""
    key = (inst.name, n_eval, seed)
    if key not in _EVAL_CACHE:
        _EVAL_CACHE[key] = _generate(
            spark, inst.csr, inst.cpe, [(n_eval, seed)], inst.width
        )
    return _EVAL_CACHE[key]
