"""``fork_map``: results in item order, errors and children accounted for,
and RMA's output independent of how many cores the driver forks over."""
import importlib
import os

import numpy as np
import pytest

from repro.core.rma import rm_without_oracle
from repro.experiments.instances import PRESETS, _graph_and_probs, build_instance
from repro.experiments.tables import EXP
from repro.forkmap import fork_map
from repro.graphs.csr import build_csr
from repro.influence.rrset import _CHUNK, generate_rr_local

from tests.helpers import random_coverage_problem

tg = importlib.import_module("repro.core.threshold_greedy")

CPUS = 4


@pytest.fixture
def forks(monkeypatch):
    """Pretend the process may use ``CPUS`` CPUs, and record the pid of
    every child forked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(CPUS)))
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def _reaped(pid) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _square(x):
    return x * x


@pytest.mark.parametrize("n", [0, 1, 3, CPUS, 2 * CPUS + 3])
def test_results_in_item_order(forks, n):
    assert fork_map(_square, range(n)) == [x * x for x in range(n)]
    assert len(forks) == (min(n, CPUS) if n > 1 else 0)
    assert all(_reaped(pid) for pid in forks)


def test_numpy_results_come_back_equal(forks):
    items = [np.arange(k, dtype=np.int32) for k in range(7)]
    got = fork_map(lambda a: (a * 3, a.astype(np.uint8)), items)
    assert forks
    for a, (x, y) in zip(items, got):
        assert x.dtype == np.int32 and np.array_equal(x, a * 3)
        assert y.dtype == np.uint8 and np.array_equal(y, a)


def test_child_error_carries_its_traceback(forks):
    def fn(x):
        if x == 5:
            raise ValueError(f"item {x} is bad")
        return x

    with pytest.raises(RuntimeError) as err:
        fork_map(fn, range(10))
    assert "ValueError: item 5 is bad" in str(err.value)
    assert "Traceback" in str(err.value)
    assert len(forks) == CPUS
    assert all(_reaped(pid) for pid in forks)


def test_nested_call_runs_inline(forks):
    def outer(x):
        return os.getpid(), fork_map(lambda y: os.getpid(), range(3))

    parent = os.getpid()
    got = fork_map(outer, range(CPUS))
    assert len(forks) == CPUS  # the children forked nothing
    for pid, inner in got:
        assert pid != parent and inner == [pid] * 3


def test_one_cpu_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    assert fork_map(_square, range(9)) == [x * x for x in range(9)]


@pytest.mark.parametrize("preset, kernel", [("tiny", "standard"), ("dblp_lite", "subsim")])
def test_forked_generation_equals_inline(forks, preset, kernel):
    """RR chunks simulated in forked children give the inline collection,
    array for array: a 3-chunk count and a block list over two chunks."""
    cfg = PRESETS[preset]
    src, dst, probs = _graph_and_probs(cfg)
    csr = build_csr(cfg["n"], src, dst, probs)
    cpe = np.linspace(1.0, 2.0, cfg["h"])
    for n_rr, seed in ((2 * _CHUNK + 5, 3), ([(_CHUNK, 4), (900, 5), (7, 4)], None)):
        got = generate_rr_local(csr, cpe, n_rr, seed=seed, kernel=kernel, fork=True)
        want = generate_rr_local(csr, cpe, n_rr, seed=seed, kernel=kernel)
        for name in ("rr_adv", "rr_ptr", "members", "key_ptr", "rr_ids"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert getattr(got, name).dtype == getattr(want, name).dtype
    assert len(forks) == 3 + 2 and all(_reaped(pid) for pid in forks)


@pytest.mark.parametrize("min_elements", [0, 10**9])
def test_fill_all_forks_only_from_the_element_threshold(forks, monkeypatch, min_elements):
    """Fill's results are the same inline and forked; ``fill_all`` forks
    exactly when the problem has ``_FORK_MIN_ELEMENTS`` elements."""
    monkeypatch.setattr(tg, "_FORK_MIN_ELEMENTS", min_elements)
    prob = random_coverage_problem(3, n=9, h=3, n_rr=80)
    starts = [tg.threshold_greedy(prob, g).start for g in (0.0, 0.2, 0.5)]
    got = tg.fill_all(prob, starts)
    assert got == [tg.fill(prob, s) for s in starts]
    assert len(forks) == (3 if min_elements == 0 else 0)
    assert all(_reaped(pid) for pid in forks)


@pytest.mark.parametrize("preset", ["lastfm_lite", "flixster_lite"])
def test_rma_is_independent_of_the_cpu_count(forks, monkeypatch, preset):
    """RR chunks and Search's Fills forked over the driver's cores give the
    output of one core: allocation, π̃, β, rounds and sets made."""
    inst = build_instance(None, preset)
    exp = EXP[preset]

    def run():
        res = rm_without_oracle(
            inst.rr_gen(None), inst.costs, inst.budgets, inst.cpe,
            eps=0.02, tau=0.1, rho=0.1, sample_scale=exp["sample_scale"],
            rr_cap=exp["rr_cap"], seed=7,
        )
        return (res.allocation, res.pi_est_r1, res.beta, res.rounds, res.n_rr_total)

    forked = run()
    assert forks and all(_reaped(pid) for pid in forks)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run() == forked
