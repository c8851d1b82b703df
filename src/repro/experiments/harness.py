"""Run-and-measure harness for the evaluation section (§5).

Each run returns a ``RunRecord`` with the quantities the paper reports:
wall time (Tables 3/5/6), revenue (Figs. 1/4/5/7), total seeding cost
(Figs. 2/7), seed count (Fig. 3), RR sets generated and RR-index bytes
(``params["index_bytes"]``, Fig. 4's memory), budget-usage rate and rate
of return (Fig. 6).

Fairness rule from §5.1: the budget input to TI-CARM/TI-CSRM is (1+ϱ)×
the budget input to RMA, because RMA is a bicriteria algorithm that may
overshoot by ϱ. Revenue is always measured on an *independent* evaluation
RR collection.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.ti_carm import ti_rm
from repro.core.rma import rm_without_oracle
from repro.experiments.instances import Instance
from repro.influence.evaluate import evaluate_revenue
from repro.influence.rrset import RRCollection


@dataclass
class RunRecord:
    algo: str
    dataset: str
    cost_model: str
    alpha: float
    kernel: str
    wall_s: float
    revenue: float
    seed_cost: float
    n_seeds: int
    n_rr_total: int
    budget_usage: float
    rate_of_return: float
    params: dict = field(default_factory=dict)
    allocation: list = field(default_factory=list)


def _record(
    inst: Instance, eval_rr: RRCollection, budgets, res, *,
    algo: str, kernel: str, wall_s: float, params: dict,
) -> RunRecord:
    """The record of run result ``res`` on ``inst``: its allocation scored
    on ``eval_rr``, its spend against the run's own ``budgets``."""
    alloc = res.allocation
    revenue, _ = evaluate_revenue(eval_rr, alloc)
    seed_cost = float(
        sum(inst.costs[i, int(u)] for i in range(inst.h) for u in alloc[i])
    )
    spend = revenue + seed_cost
    return RunRecord(
        algo=algo,
        dataset=inst.name,
        cost_model=inst.cost_model,
        alpha=inst.alpha,
        kernel=kernel,
        wall_s=wall_s,
        revenue=revenue,
        seed_cost=seed_cost,
        n_seeds=int(sum(len(s) for s in alloc)),
        n_rr_total=res.n_rr_total,
        budget_usage=spend / float(np.sum(budgets)),
        rate_of_return=revenue / spend if spend > 0 else 0.0,
        params=params,
        allocation=alloc,
    )


def run_rma(
    spark: SparkSession,
    inst: Instance,
    eval_rr: RRCollection,
    *,
    eps: float = 0.02,
    tau: float = 0.1,
    rho: float = 0.1,
    sample_scale: float = 1.0,
    rr_cap: int | None = None,
    kernel: str = "standard",
    seed: int = 7,
) -> RunRecord:
    """Time and score one RMA run on ``inst``."""
    gen = inst.rr_gen(spark, kernel)
    t0 = time.perf_counter()
    res = rm_without_oracle(
        gen,
        inst.costs,
        inst.budgets,
        inst.cpe,
        eps=eps,
        tau=tau,
        rho=rho,
        sample_scale=sample_scale,
        rr_cap=rr_cap,
        seed=seed,
    )
    return _record(
        inst, eval_rr, inst.budgets, res,
        algo="RMA",
        kernel=kernel,
        wall_s=time.perf_counter() - t0,
        params=dict(
            eps=eps, tau=tau, rho=rho, sample_scale=sample_scale,
            rounds=res.rounds, beta=res.beta, stopped_by=res.stopped_by,
            index_bytes=res.index_bytes,
        ),
    )


def run_ti(
    spark: SparkSession,
    inst: Instance,
    eval_rr: RRCollection,
    *,
    rule: str,
    eps: float = 0.1,
    rho: float = 0.1,
    sample_scale: float = 1.0,
    rr_cap: int | None = None,
    kernel: str = "standard",
    seed: int = 11,
    max_latent: int | None = 32,
) -> RunRecord:
    """Time and score one TI-CARM ("gain") / TI-CSRM ("rate") run.

    Budgets are (1+ϱ)×RMA's, per the §5.1 fairness rule.
    """
    gen = inst.rr_gen_adv(spark, kernel)
    budgets = (1.0 + rho) * inst.budgets
    t0 = time.perf_counter()
    res = ti_rm(
        gen,
        inst.csr,
        inst.costs,
        budgets,
        rule=rule,
        eps=eps,
        sample_scale=sample_scale,
        rr_cap=rr_cap,
        seed=seed,
        max_latent=max_latent,
    )
    return _record(
        inst, eval_rr, budgets, res,
        algo="TI-CARM" if rule == "gain" else "TI-CSRM",
        kernel=kernel,
        wall_s=time.perf_counter() - t0,
        params=dict(
            eps=eps, rho=rho, sample_scale=sample_scale,
            regenerations=res.regenerations, index_bytes=res.index_bytes,
        ),
    )
