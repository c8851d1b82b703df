"""The layer map: which module-level names the traced run wraps, and how
the spans they record become the per-layer metrics.

Each entry wraps the name a caller looks up, in the caller's module:

- ``repro.experiments.instances`` calls the graph builders, the RR
  generators (both for σ at set-up and inside the ``rr_gen`` closures the
  algorithms use), singleton spreads and costs;
- ``repro.experiments.harness`` calls ``rm_without_oracle``, ``ti_rm`` and
  ``evaluate_revenue``;
- ``repro.core.rma`` calls ``rm_with_oracle`` and ``seek_ub``;
- ``repro.core.search`` calls ``threshold_greedy`` (reached through
  ``sys.modules``: the package attribute ``repro.core.search`` is the
  re-exported function, not the module);
- ``repro.baselines.ti_carm`` calls ``kpt_estimation``;
- ``RRCollection.merge`` is a method, wrapped on the class.

All ``*_s`` metrics of cell layers are self times. Inside the harness
``wall_s`` they add up to it; ``trace.residual_s`` is what they leave
unattributed.
"""
from __future__ import annotations

from repro.influence.rrset import RRCollection


def _rr_counts(args, kwargs, rr):
    return {"sets": rr.n_rr, "members": len(rr.exploded)}


INST = "repro.experiments.instances"
HARNESS = "repro.experiments.harness"

PATCHES = [
    (INST, "powerlaw_edges", "graphs.edges", None),
    (INST, "symmetrize", "graphs.edges", None),
    (INST, "_graph_and_probs", "graphs.probs", None),
    (INST, "build_csr", "graphs.csr", None),
    (INST, "singleton_spreads", "instances.singleton_spreads", None),
    (INST, "seed_costs", "costs.seed_costs", None),
    (INST, "generate_rr_local", "rrset.local", _rr_counts),
    (INST, "generate_rr_collection", "rrset.spark", _rr_counts),
    (RRCollection, "merge", "rrset.merge", None),
    (HARNESS, "rm_without_oracle", "core.rm_without_oracle", None),
    (HARNESS, "ti_rm", "baselines.ti_rm", None),
    (HARNESS, "evaluate_revenue", "evaluate.revenue", None),
    ("repro.core.rma", "rm_with_oracle", "core.rm_with_oracle", None),
    ("repro.core.rma", "seek_ub", "core.seek_ub", None),
    ("repro.core.search", "threshold_greedy", "core.threshold_greedy", None),
    ("repro.baselines.ti_carm", "kpt_estimation", "baselines.kpt", None),
]


def install(tracer) -> None:
    for owner, attr, name, count in PATCHES:
        tracer.patch(owner, attr, name, count)


# Per-layer metrics: name -> unit. ``cell_metrics`` and ``setup_metrics``
# fill them; a layer a workload never calls reads 0.
UNITS = {
    "rrset.spark_calls": "count",
    "rrset.spark_sets": "count",
    "rrset.spark_s": "s",
    "rrset.spark_sets_per_s": "1/s",
    "rrset.local_calls": "count",
    "rrset.local_sets": "count",
    "rrset.local_s": "s",
    "rrset.local_sets_per_s": "1/s",
    "rrset.members": "count",
    "rrset.mean_width": "count",
    "rrset.merge_calls": "count",
    "rrset.merge_s": "s",
    "core.threshold_greedy_calls": "count",
    "core.threshold_greedy_s": "s",
    "core.rm_with_oracle_s": "s",
    "core.seek_ub_s": "s",
    "core.validate_s": "s",
    "rma.rounds": "count",
    "rma.n_rr_total": "count",
    "rma.stopped_by_beta": "share",
    "baselines.kpt_calls": "count",
    "baselines.kpt_s": "s",
    "baselines.regenerations": "count",
    "baselines.select_s": "s",
    "evaluate.revenue_s": "s",
    "trace.residual_s": "s",
    "trace.overhead": "share",
    "host.block_s": "s",
    "cell.rma_s": "s",
    "cell.ti_carm_s": "s",
    "cell.ti_csrm_s": "s",
    "cell.rma_revenue": "cpe_units",
    "cell.ti_carm_revenue": "cpe_units",
    "cell.ti_csrm_revenue": "cpe_units",
    "cell.max_spend_share": "share",
    "graphs.edges_s": "s",
    "graphs.probs_s": "s",
    "graphs.csr_s": "s",
    "instances.sigma_rr_s": "s",
    "costs.seed_costs_s": "s",
    "evaluate.eval_rr_s": "s",
    "spark.session_s": "s",
    "probe.local_20k_s": "s",
    "probe.spark_20k_s": "s",
    "probe.local_100k_s": "s",
    "probe.spark_100k_s": "s",
}

# Per-layer metrics where a higher reading is better; the rest are lower or
# plain counts.
HIGHER = {
    "rrset.spark_sets_per_s",
    "rrset.local_sets_per_s",
    "cell.rma_revenue",
    "cell.ti_carm_revenue",
    "cell.ti_csrm_revenue",
}


# The self times that lie inside the harness wall_s (evaluate.revenue_s is
# scoring after it).
WALL_PARTS = (
    "rrset.spark_s", "rrset.local_s", "rrset.merge_s",
    "core.threshold_greedy_s", "core.rm_with_oracle_s", "core.seek_ub_s",
    "core.validate_s", "baselines.kpt_s", "baselines.select_s",
)


def _get(agg, name, key):
    return float(agg[name][key]) if name in agg else 0.0


def cell_metrics(tracer, root: int, records) -> dict[str, float]:
    """Per-layer numbers of one traced cell (spans under ``root``)."""
    agg = tracer.totals(tracer.descendants(root))
    m: dict[str, float] = {}
    sets = members = 0.0
    for kind in ("spark", "local"):
        span = f"rrset.{kind}"
        k_sets, k_s = _get(agg, span, "sets"), _get(agg, span, "self_s")
        m[f"rrset.{kind}_calls"] = _get(agg, span, "calls")
        m[f"rrset.{kind}_sets"] = k_sets
        m[f"rrset.{kind}_s"] = k_s
        m[f"rrset.{kind}_sets_per_s"] = k_sets / k_s if k_s > 0 else 0.0
        sets += k_sets
        members += _get(agg, span, "members")
    m["rrset.members"] = members
    m["rrset.mean_width"] = members / sets if sets else 0.0
    m["rrset.merge_calls"] = _get(agg, "rrset.merge", "calls")
    m["rrset.merge_s"] = _get(agg, "rrset.merge", "self_s")
    m["core.threshold_greedy_calls"] = _get(agg, "core.threshold_greedy", "calls")
    m["core.threshold_greedy_s"] = _get(agg, "core.threshold_greedy", "self_s")
    m["core.rm_with_oracle_s"] = _get(agg, "core.rm_with_oracle", "self_s")
    m["core.seek_ub_s"] = _get(agg, "core.seek_ub", "self_s")
    m["core.validate_s"] = _get(agg, "core.rm_without_oracle", "self_s")
    m["baselines.kpt_calls"] = _get(agg, "baselines.kpt", "calls")
    m["baselines.kpt_s"] = _get(agg, "baselines.kpt", "self_s")
    m["baselines.select_s"] = _get(agg, "baselines.ti_rm", "self_s")
    m["evaluate.revenue_s"] = _get(agg, "evaluate.revenue", "self_s")
    m["trace.residual_s"] = sum(r.wall_s for r in records) - sum(
        m[k] for k in WALL_PARTS
    )
    rma = [r for r in records if r.algo == "RMA"]
    m["rma.rounds"] = float(sum(r.params["rounds"] for r in rma))
    m["rma.n_rr_total"] = float(sum(r.n_rr_total for r in rma))
    m["rma.stopped_by_beta"] = (
        sum(r.params["stopped_by"] == "beta" for r in rma) / len(rma) if rma else 0.0
    )
    m["baselines.regenerations"] = float(
        sum(r.params.get("regenerations", 0) for r in records)
    )
    return m


def setup_metrics(tracer, root: int) -> dict[str, float]:
    """Per-layer numbers of the traced set-up (spans under ``root``)."""
    spans = tracer.descendants(root)
    agg = tracer.totals(spans)
    sigma_s = sum(
        s.dur
        for s in spans
        if s.name.startswith("rrset.")
        and tracer.spans[s.parent].name == "instances.build_instance"
    )
    return {
        "graphs.edges_s": _get(agg, "graphs.edges", "self_s"),
        "graphs.probs_s": _get(agg, "graphs.probs", "self_s"),
        "graphs.csr_s": _get(agg, "graphs.csr", "self_s"),
        "instances.sigma_rr_s": sigma_s
        + _get(agg, "instances.singleton_spreads", "self_s"),
        "costs.seed_costs_s": _get(agg, "costs.seed_costs", "self_s"),
        "evaluate.eval_rr_s": _get(agg, "evaluate.eval_rr", "total_s"),
    }
