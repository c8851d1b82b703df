"""Revenue / spread evaluation over an RR collection (Lemma 4.1).

The paper measures the revenue of every algorithm's output on 10^7 RR sets
generated independently of the algorithms (§5.1). We do the same with a
collection scaled to our graphs (default 10^5, see DESIGN.md). Singleton
spreads — needed by the seed-incentive cost models — are counted on a
dedicated collection: a ``bincount`` of its member keys counts each
(advertiser, node) key's sets without building the key-major index (tests
check it against ``diff(key_ptr)``, a Spark group-by and DuckDB).
"""
from __future__ import annotations

import numpy as np

from repro.influence.rrset import RRCollection


def evaluate_revenue(rr: RRCollection, allocation) -> tuple[float, np.ndarray]:
    """(total π̃, per-advertiser π̃_i) of an allocation on this collection,
    from one RR-major pass (``RRCollection.covered_counts``)."""
    per = rr.covered_counts(allocation) * rr.factor
    return float(per.sum()), per


def singleton_spreads(rr: RRCollection) -> np.ndarray:
    """(h, n) estimated singleton spreads σ̂_i({u}) = nΓ·cnt_i(u)/(|R|·cpe_i).

    Clamped below at 1.0: σ_i({u}) ≥ 1 always (a seed activates itself),
    and the QuasiLinear cost model takes ln(σ) which must stay ≥ 0.
    """
    counts = rr.singleton_cover_counts().astype(np.float64)
    sigma = counts * rr.factor / rr.cpe[:, None]
    return np.maximum(sigma, 1.0)
