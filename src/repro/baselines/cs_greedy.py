"""Oracle versions of Aslay et al.'s greedy baselines (§2.2).

Both iterate over elements (u, i); CA-Greedy picks by maximum marginal
*gain* π_i(u|S_i), CS-Greedy by maximum marginal *rate* ζ_i(u|S_i). When
the chosen element would overshoot advertiser i's budget, that advertiser
is closed (this is what makes CA-Greedy "terminate with very few seeds"
under the super-linear cost model — the paper's footnote-8 behaviour).
Selection is the CELF engine of the core algorithms.
"""
from __future__ import annotations

from repro.core.celf import Ledger
from repro.core.model import RMProblem


def _greedy_by_rule(prob: RMProblem, rule: str) -> list:
    assert rule in ("gain", "rate")
    ledger = Ledger(prob)

    def visit(u, i, g):  # select, or close the advertiser
        if ledger.fits(u, i, g):
            ledger.select(u, i)
        else:
            ledger.closed.add(i)

    ledger.run(prob.initial_order(rule), visit, by_rate=rule == "rate")
    return ledger.alloc


def ca_greedy(prob: RMProblem) -> list:
    """Cost-Agnostic Greedy: select by marginal gain."""
    return _greedy_by_rule(prob, "gain")


def cs_greedy(prob: RMProblem) -> list:
    """Cost-Sensitive Greedy: select by marginal rate."""
    return _greedy_by_rule(prob, "rate")
