"""Influence-propagation substrate: RR sets and coverage evaluation."""
from repro.influence.rrset import (
    RRCollection,
    generate_rr_collection,
    generate_rr_local,
)
from repro.influence.evaluate import evaluate_revenue, singleton_spreads

__all__ = [
    "RRCollection",
    "generate_rr_collection",
    "generate_rr_local",
    "evaluate_revenue",
    "singleton_spreads",
]
