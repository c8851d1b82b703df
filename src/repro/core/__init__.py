"""The paper's contribution: Algorithms 1–7 over the RR-coverage revenue model."""
from repro.core.model import (
    RMProblem,
    CoverageRevenueModel,
    brute_force_opt,
)
from repro.core.greedy import greedy
from repro.core.threshold_greedy import threshold_greedy, fill
from repro.core.search import search, gamma_max
from repro.core.rm_oracle import rm_with_oracle, approx_ratio
from repro.core.seekub import seek_ub
from repro.core.rma import rm_without_oracle, RMAResult

__all__ = [
    "RMProblem",
    "CoverageRevenueModel",
    "brute_force_opt",
    "greedy",
    "threshold_greedy",
    "fill",
    "search",
    "gamma_max",
    "rm_with_oracle",
    "approx_ratio",
    "seek_ub",
    "rm_without_oracle",
    "RMAResult",
]
