"""Tests for Algorithm 7 (SeekUB) — Lemma B.8 validity."""
import pytest

from repro.core.model import brute_force_opt
from repro.core.rm_oracle import approx_ratio, rm_with_oracle
from repro.core.seekub import seek_ub

from tests.helpers import random_coverage_problem


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("h", [1, 2, 3])
def test_seekub_upper_bounds_opt(seed, h):
    """z ≥ π̃(O⃗, R₁) for the brute-force optimum (Lemma B.8)."""
    n = 7 if h < 3 else 6
    prob = random_coverage_problem(seed, n=n, h=h, n_rr=30)
    opt, _ = brute_force_opt(prob)
    tau = 0.1
    res = rm_with_oracle(prob, tau)
    z = seek_ub(res, approx_ratio(h, tau))
    assert z >= opt - 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_seekub_no_worse_than_trivial(seed):
    prob = random_coverage_problem(seed, n=7, h=2, n_rr=30)
    tau = 0.1
    lam = approx_ratio(2, tau)
    res = rm_with_oracle(prob, tau)
    z = seek_ub(res, lam)
    assert z <= res.pi_star / lam + 1e-9


def test_seekub_often_tighter_than_trivial():
    """The point of SeekUB: the bound is ≤ trivial and strictly better for
    at least some instances (checked in aggregate)."""
    tighter = 0
    for s in range(20):
        prob = random_coverage_problem(100 + s, n=7, h=2, n_rr=30)
        tau = 0.1
        lam = approx_ratio(2, tau)
        res = rm_with_oracle(prob, tau)
        z = seek_ub(res, lam)
        if z < res.pi_star / lam - 1e-9:
            tighter += 1
    assert tighter >= 1
