"""Graph substrate: synthetic social networks, TIC/WC influence models, CSR.

The paper evaluates on Flixster / LastFM (TIC model with learned
probabilities) and DBLP / LiveJournal (Weighted-Cascade model). We build
deterministic synthetic stand-ins with the same structural properties
(heavy-tailed degrees, directed edges, per-topic probabilities) — see
DESIGN.md § Substitutions.
"""
from repro.graphs.generators import powerlaw_edges, symmetrize
from repro.graphs.csr import CSRGraph, build_csr
from repro.graphs.tic import (
    tic_probs,
    tic_topic_entries,
    ad_mixtures,
    wc_probs,
)

__all__ = [
    "powerlaw_edges",
    "symmetrize",
    "CSRGraph",
    "build_csr",
    "tic_probs",
    "tic_topic_entries",
    "ad_mixtures",
    "wc_probs",
]
