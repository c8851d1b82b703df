"""Dataset presets and problem-instance assembly (§5.1 settings).

Presets are laptop-scale synthetic stand-ins for the paper's datasets
(DESIGN.md § Substitutions). ``lastfm_lite`` matches LastFM's real size;
the others are scaled down, with budgets scaled by the node-count ratio so
budget-to-reachable-revenue ratios are preserved.

Building an instance runs edge generation, TIC/WC probability mixing and
CSR assembly on the driver (numpy), then singleton spread estimation from a
dedicated RR collection (on the driver, or Spark mapInArrow for large
ones), then attaches the seed-incentive costs. Only that RR collection can
start a Spark job.
"""
from __future__ import annotations

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

# Above this many expected members (sets × mean width) Spark's fan-out beats
# the driver: its fixed cost (job launch, broadcast, Arrow collect) is
# ~0.4 s, its per-member cost about half the driver kernel's. The crossover
# tracks members, not sets. Measured on a 4-vCPU VM, `local[4]`, warm
# session, best of 2, seconds local / Spark:
#
#   graph (mean width)                20K sets     100K         400K         1M
#   flixster_lite (4.6)               0.04 / 0.44  0.24 / 0.66  0.87 / 1.14  2.63 / 2.03
#   WC, livejournal-shaped (15.5)     0.21 / 0.59  1.07 / 1.41  4.61 / 3.44  —
#
# i.e. parity at ~2.7M members on flixster and ~2.6M on the WC graph.
_SPARK_MIN_MEMBERS = 2_500_000
# Sets generated on the driver to read the mean width off.
_WIDTH_PROBE = 1024


def _generate(spark, csr, cpe, n_rr, seed, kernel="standard") -> RRCollection:
    """RR sets 0..n_rr-1 of (csr, cpe, kernel, seed). Both paths return the
    same collection; the expected member count, read off the first
    ``_WIDTH_PROBE`` sets made on the driver, only picks the faster one. On
    the driver the remaining sets are appended to the probe."""
    head = generate_rr_local(
        csr, cpe, min(n_rr, _WIDTH_PROBE), seed=seed, kernel=kernel
    )
    if n_rr <= _WIDTH_PROBE:
        return head
    if n_rr * len(head.members) <= _SPARK_MIN_MEMBERS * head.n_rr:
        tail = generate_rr_local(
            csr, cpe, n_rr - head.n_rr, seed=seed, kernel=kernel, first=head.n_rr
        )
        return head.merge(tail)
    return generate_rr_collection(spark, csr, cpe, n_rr, seed=seed, kernel=kernel)


# Paper Table 2 (LastFM at native scale; Flixster budgets scaled by n ratio
# 6K/30K = 1/5). WC presets use uniform budgets as in §5.2.3.
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
    n: int
    h: int
    src: np.ndarray
    dst: np.ndarray
    directed: bool
    cpe: np.ndarray
    budgets: np.ndarray
    shared_probs: bool
    csr: CSRGraph
    sigma1: np.ndarray  # (h, n) singleton spread estimates
    costs: np.ndarray  # (h, n) seeding costs
    alpha: float
    cost_model: str

    @property
    def m(self) -> int:
        return len(self.src)

    def rr_gen(self, spark: SparkSession, kernel: str = "standard"):
        """Uniform-sampling RR generator for RMA: gen(n_rr, seed)."""

        def gen(n_rr: int, seed: int) -> RRCollection:
            return _generate(spark, self.csr, self.cpe, n_rr, seed, kernel)

        return gen

    def rr_gen_adv(self, spark: SparkSession, kernel: str = "standard"):
        """Per-advertiser RR generator for the TI baselines: gen(adv, n_rr, seed)."""

        def gen(adv: int, n_rr: int, seed: int) -> RRCollection:
            onehot = np.zeros(self.h)
            onehot[adv] = self.cpe[adv]
            return _generate(spark, self.csr, onehot, n_rr, seed, kernel)

        return gen


def _graph_and_probs(cfg: dict):
    src, dst = powerlaw_edges(cfg["n"], cfg["m"], seed=cfg["seed"])
    if not cfg["directed"]:
        src, dst = symmetrize(src, dst)
    m = len(src)
    if cfg["model"] == "tic":
        topic_pdf = tic_topic_entries(
            m, cfg["L"], seed=cfg["seed"] + 1, density=cfg["density"], p_max=cfg["p_max"]
        )
        phi = ad_mixtures(cfg["h"], cfg["L"], seed=cfg["seed"] + 2)
        probs = tic_probs(topic_pdf, phi, m)
        shared = False
    else:
        probs = wc_probs(dst, cfg["n"])[None, :]
        shared = True
    return src, dst, probs, shared


def build_instance(
    spark: SparkSession,
    preset: str,
    *,
    alpha: float = 0.1,
    cost_model: str = "linear",
) -> Instance:
    """Assemble an instance from a preset (no caching — see get_instance)."""
    cfg = PRESETS[preset]
    src, dst, probs, shared = _graph_and_probs(cfg)
    n, h = cfg["n"], cfg["h"]
    if cfg["model"] == "wc":
        budgets = np.full(h, float(cfg["uniform_budget"]))
        cpe = np.full(h, float(cfg["uniform_cpe"]))
    else:
        budgets = np.asarray(cfg["budgets"], dtype=np.float64)
        cpe = np.asarray(cfg["cpes"], dtype=np.float64)
    csr = build_csr(n, src, dst, probs, h=h, shared_probs=shared)
    sigma1 = singleton_spreads(
        _generate(spark, csr, cpe, min(20 * n, 200_000), cfg["seed"] + 77)
    )
    costs = seed_costs(sigma1, alpha, cost_model)
    return Instance(
        name=preset,
        n=n,
        h=h,
        src=src,
        dst=dst,
        directed=cfg["directed"],
        cpe=cpe,
        budgets=budgets,
        shared_probs=shared,
        csr=csr,
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
        _EVAL_CACHE[key] = _generate(spark, inst.csr, inst.cpe, n_eval, seed)
    return _EVAL_CACHE[key]
