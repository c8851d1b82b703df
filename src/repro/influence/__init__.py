"""Influence-propagation substrate: RR sets, coverage evaluation, exact enumeration."""
from repro.influence.rrset import (
    RRCollection,
    generate_rr_collection,
    generate_rr_local,
)
from repro.influence.spread import exact_spread_enum
from repro.influence.evaluate import evaluate_revenue, singleton_spreads

__all__ = [
    "RRCollection",
    "generate_rr_collection",
    "generate_rr_local",
    "exact_spread_enum",
    "evaluate_revenue",
    "singleton_spreads",
]
