"""Benchmark: RMA's selection layer, Search(τ, b_min) on a fixed collection.

Search (Algorithm 4) runs ThresholdGreedy and Fill about five times per RMA
round and is the largest layer of a ``flixster_lite`` RMA cell. This times
one round's selection as ``rm_with_oracle`` runs it: a fresh ``RMProblem``
(its presorted entries are built per problem) under RMA's inflated budgets
(1+ϱ/2)·B_i, then ``search(prob, 0.1, 2)``. Everything runs on the driver,
with no Spark session: the instance's σ collection and R₁ are generated
locally, so the timing depends on neither Spark nor the sampler's local/Spark
split. R₁ has the size of the last round of an RMA cell at the ``tables.EXP``
settings (228,288 sets).

The π̃ and the allocation hash pin the result: a faster selection must
choose the same seeds.
"""
import hashlib
import json

import pytest

from repro.core.model import CoverageRevenueModel, RMProblem
from repro.core.search import search
from repro.experiments.instances import build_instance
from repro.influence.rrset import generate_rr_local

RHO = 0.1
N_RR = 228_288
SEED = 7
PI_STAR = 10576.640033641717
ALLOC_SHA = "d2086a9896fcc19f"


def allocation_sha(allocation) -> str:
    seeds = [sorted(int(u) for u in s) for s in allocation]
    return hashlib.sha256(json.dumps(seeds).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def flixster_r1():
    # The σ collection of flixster_lite is far below the Spark threshold,
    # so the instance builds on the driver without a session.
    inst = build_instance(None, "flixster_lite")
    r1 = generate_rr_local(inst.csr, inst.cpe, N_RR, seed=SEED)
    return inst, r1


def test_search_flixster(benchmark, flixster_r1):
    inst, r1 = flixster_r1

    def one_round():
        prob = RMProblem(
            CoverageRevenueModel(r1), inst.costs, (1.0 + RHO / 2.0) * inst.budgets
        )
        return search(prob, 0.1, 2)

    res = benchmark.pedantic(one_round, rounds=3, iterations=1)
    assert res.pi_star == PI_STAR
    assert allocation_sha(res.allocation) == ALLOC_SHA
