"""Benchmark: TI-CARM then TI-CSRM on ``lastfm_lite``, as a ``ti_lastfm`` cell
runs them but without Spark or scoring.

Both baselines run at the ``tables.EXP`` settings of ``lastfm_lite``
(ε = 0.1, sample_scale 0.05, a 16K-set cap per advertiser, latent sizes up
to 16) under the (1+ϱ)×B budgets of §5.1, with the harness seed. Their time
is almost all RR generation: KptEstimation's small draws at every
latent-size doubling and the θ resamples. Everything runs on the driver, with
no Spark session: the instance's σ collection and every TI collection of
``lastfm_lite`` are far below the Spark threshold.

The allocation hashes and RR counts pin the result: faster generation must
choose the same seeds from the same samples.
"""
import pytest

from benchmarks.bench_selection import allocation_sha
from repro.baselines.ti_carm import ti_rm
from repro.experiments.instances import build_instance
from repro.experiments.tables import EXP

RHO = 0.1
SEED = 11  # harness.run_ti default
PINS = {
    "gain": ("23c26836843598c9", 893_382),
    "rate": ("09f6bcf032314165", 893_382),
}


@pytest.fixture(scope="module")
def lastfm():
    return build_instance(None, "lastfm_lite")


@pytest.mark.parametrize("rule", ["gain", "rate"], ids=["TI-CARM", "TI-CSRM"])
def test_ti_lastfm(benchmark, lastfm, rule):
    inst, exp = lastfm, EXP["lastfm_lite"]

    def run():
        return ti_rm(
            inst.rr_gen_adv(None),
            inst.csr,
            inst.costs,
            (1.0 + RHO) * inst.budgets,
            rule=rule,
            eps=0.1,
            sample_scale=exp["sample_scale"],
            rr_cap=exp["ti_cap"],
            seed=SEED,
            max_latent=exp["max_latent"],
        )

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert (allocation_sha(res.allocation), res.n_rr_total) == PINS[rule]
