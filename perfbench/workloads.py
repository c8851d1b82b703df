"""Workloads, set-up, cells and their correctness gates.

A *cell* is one Table-3 measurement as ``repro.experiments.tables`` runs
it: the harness call (``run_rma``/``run_ti``) at α=0.1, linear costs, the
dataset's ``EXP`` scales, scored on the independent evaluation collection.
Every number here comes from public calls; nothing under ``src/`` is
changed.

The algorithm seeds are fixed at the harness defaults, so every run
measures the same work; the workload seed picks the evaluation
collection's seed (README.md, "Seeds").
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.model import CoverageRevenueModel
from repro.experiments import harness, instances
from repro.experiments.tables import EXP
from repro.influence.evaluate import evaluate_revenue

ALPHA = 0.1
RHO = 0.1
RMA_SEED = 7  # harness.run_rma default
TI_SEED = 11  # harness.run_ti default
EVAL_SEED_BASE = 424242  # instances.get_eval_rr default


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    kernel: str
    algos: tuple[str, ...]  # run in this order inside one cell
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rma_flixster", "flixster_lite", "standard", ("RMA",),
            "RMA cell on flixster_lite (TIC): Spark RR fan-out and merges",
        ),
        # Not in BENCHMARK.json: with it, a full measurement overruns its
        # time budget (README.md).
        Workload(
            "rma_dblp_wc", "dblp_lite", "subsim", ("RMA",),
            "RMA cell on dblp_lite (WC, SUBSIM): selection-heavy, "
            "bypasses the standard kernel",
        ),
        Workload(
            "ti_lastfm", "lastfm_lite", "standard", ("TI-CARM", "TI-CSRM"),
            "TI-CARM then TI-CSRM on lastfm_lite: many small driver-local "
            "generations, Spark idle",
        ),
        # Not in BENCHMARK.json: the fast self-test's workload.
        Workload(
            "selftest", "tiny", "standard", ("RMA", "TI-CARM", "TI-CSRM"),
            "every algorithm on the tiny preset",
        ),
    )
}


@dataclass
class Setup:
    inst: instances.Instance
    eval_rr: object
    eval_seed: int


def set_up(spark, wl: Workload, seed: int, tracer=None) -> Setup:
    """Build the instance and its evaluation collection (no caches)."""
    eval_seed = EVAL_SEED_BASE + seed
    with _maybe_span(tracer, "instances.build_instance"):
        inst = instances.build_instance(spark, wl.preset, alpha=ALPHA)
    with _maybe_span(tracer, "evaluate.eval_rr"):
        eval_rr = instances.generate_rr_collection(
            spark, inst.csr, inst.cpe, EXP[wl.preset]["n_eval"], seed=eval_seed
        )
    return Setup(inst, eval_rr, eval_seed)


def run_cell(spark, wl: Workload, st: Setup) -> list[harness.RunRecord]:
    """One cell: the workload's harness calls, in order."""
    exp = EXP[wl.preset]
    out = []
    for algo in wl.algos:
        if algo == "RMA":
            out.append(
                harness.run_rma(
                    spark, st.inst, st.eval_rr, eps=0.02, tau=0.1, rho=RHO,
                    sample_scale=exp["sample_scale"], rr_cap=exp["rr_cap"],
                    kernel=wl.kernel, seed=RMA_SEED,
                )
            )
        else:
            out.append(
                harness.run_ti(
                    spark, st.inst, st.eval_rr,
                    rule="gain" if algo == "TI-CARM" else "rate",
                    eps=0.1, rho=RHO, sample_scale=exp["sample_scale"],
                    rr_cap=exp["ti_cap"], kernel=wl.kernel,
                    max_latent=exp["max_latent"], seed=TI_SEED,
                )
            )
    return out


def _eval_spend(alloc, st: Setup) -> tuple[float, np.ndarray]:
    """(eval revenue, per-advertiser cost + eval revenue) of an allocation."""
    inst = st.inst
    revenue, per_adv = evaluate_revenue(st.eval_rr, alloc)
    costs = [sum(inst.costs[i, u] for u in alloc[i]) for i in range(inst.h)]
    return revenue, per_adv + np.asarray(costs)


def check_record(rec: harness.RunRecord, st: Setup) -> tuple[list[str], float]:
    """Correctness gates for one harness record.

    Returns the violations and the largest per-advertiser eval spend as a
    share of its bound.
    """
    inst = st.inst
    errs = []
    alloc = [set(int(u) for u in s) for s in rec.allocation]
    if len(alloc) != inst.h:
        return [f"{rec.algo}: {len(alloc)} seed sets for h={inst.h}"], math.inf
    seen: set[int] = set()
    for i, s in enumerate(alloc):
        if any(u < 0 or u >= inst.n for u in s):
            errs.append(f"{rec.algo}: advertiser {i} has a node outside [0, n)")
        if seen & s:
            errs.append(f"{rec.algo}: advertiser {i} shares seeds")
        seen |= s
    # Every algorithm is held to (1+ϱ)B_i on the evaluation collection:
    # RMA's bicriteria bound, and the baselines' own input budget.
    revenue, spend = _eval_spend(alloc, st)
    share = spend / ((1.0 + RHO) * inst.budgets)
    over = np.nonzero(share > 1.0 + 1e-9)[0]
    if len(over):
        errs.append(f"{rec.algo}: spend over (1+rho)B for advertisers {list(over)}")
    oracle = CoverageRevenueModel(st.eval_rr).pi_alloc(alloc)
    if not math.isclose(revenue, oracle, rel_tol=1e-9, abs_tol=1e-9):
        errs.append(f"{rec.algo}: evaluate_revenue {revenue} != pi_alloc {oracle}")
    if not math.isclose(rec.revenue, revenue, rel_tol=1e-9, abs_tol=1e-9):
        errs.append(f"{rec.algo}: recorded revenue {rec.revenue} != {revenue}")
    if revenue <= 0:
        errs.append(f"{rec.algo}: zero revenue")
    return errs, float(share.max())


def same_allocation(a: list[harness.RunRecord], b: list[harness.RunRecord]) -> bool:
    return all(
        [set(map(int, s)) for s in x.allocation]
        == [set(map(int, s)) for s in y.allocation]
        for x, y in zip(a, b, strict=True)
    )


def _maybe_span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()
