"""Tests for revenue evaluation and singleton-spread estimation."""
import pytest

from repro.influence.evaluate import evaluate_revenue, singleton_spreads
from repro.influence.rrset import from_memberships


def _toy_rr():
    return from_memberships(
        6,
        [1.0, 1.0],
        [
            (0, {0, 1}),
            (0, {2}),
            (1, {0}),
            (1, {3, 4}),
        ],
    )


def test_covered_counts():
    rr = _toy_rr()
    assert rr.covered_counts([{0}, set()]).tolist() == [1, 0]
    assert rr.covered_counts([{0}, {0}]).tolist() == [1, 1]
    assert rr.covered_counts([{1, 2}, {3}]).tolist() == [2, 1]
    assert rr.covered_counts([set(), set()]).tolist() == [0, 0]


def test_evaluate_revenue_factor():
    rr = _toy_rr()
    total, per = evaluate_revenue(rr, [{0, 2}, {3}])
    # factor = nΓ/|R| = 6·2/4 = 3; coverage (2, 1).
    assert per.tolist() == [6.0, 3.0]
    assert total == 9.0


def test_double_cover_counts_once():
    rr = _toy_rr()
    total, per = evaluate_revenue(rr, [{0, 1}, set()])
    assert per[0] == 3.0  # rr 0 covered once despite two members


def test_singleton_spreads_formula_and_clamp():
    rr = _toy_rr()
    sig = singleton_spreads(rr)
    # σ̂_0({0}) = nΓ·cnt/( |R|·cpe ) = 6·2·1/(4·1) = 3.
    assert sig[0, 0] == pytest.approx(3.0)
    # Node 5 appears in no RR set → clamped to 1.
    assert sig[0, 5] == 1.0 and sig[1, 5] == 1.0
    assert sig.shape == (2, 6)
