"""Tests for the TIC / Weighted-Cascade probability substrate."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.generators import powerlaw_edges
from repro.graphs.tic import ad_mixtures, tic_probs, tic_topic_entries, wc_probs
from tests.oracle import assert_equivalent


@pytest.mark.parametrize("seed", range(3))
def test_mixtures_are_distributions(seed):
    phi = ad_mixtures(5, 8, seed=seed)
    assert phi.shape == (5, 8)
    assert np.all(phi > 0)
    assert np.allclose(phi.sum(axis=1), 1.0)


@pytest.mark.parametrize("seed", range(3))
def test_topic_entries_sparse(seed):
    m, L, density = 2000, 10, 0.2
    edge, topic, p_hat = tic_topic_entries(m, L, seed=seed, density=density)
    frac = len(edge) / (m * L)
    assert abs(frac - density) < 0.03
    assert p_hat.min() >= 0.01


@pytest.mark.parametrize("seed", range(3))
def test_tic_probs_closed_form(seed):
    """The topic-by-topic mixing p^i = Σ_z φ_i(z)·p̂^z matches the dense
    product φ · p̂ᵀ."""
    m, L, h = 400, 6, 4
    topics = tic_topic_entries(m, L, seed=seed, density=0.3)
    phi = ad_mixtures(h, L, seed=seed + 1)
    probs = tic_probs(topics, phi, m)
    edge, topic, p_hat = topics
    dense = np.zeros((m, L))
    dense[edge, topic] = p_hat
    assert np.allclose(probs, phi @ dense.T)


def test_tic_probs_vs_duckdb():
    """The nonzero entries of the mixing are the rows of the join + group-by
    over (edge_id, topic, p_hat) and (adv, topic, phi), run in DuckDB."""
    m, L, h = 200, 5, 3
    topics = tic_topic_entries(m, L, seed=11, density=0.4)
    phi = ad_mixtures(h, L, seed=12)
    probs = tic_probs(topics, phi, m)
    adv, edge = np.nonzero(probs)
    ad_topic = np.indices((h, L)).reshape(2, -1)
    assert_equivalent(
        pd.DataFrame({"edge_id": edge, "adv": adv, "p": probs[adv, edge]}),
        """
        SELECT t.edge_id, a.adv, SUM(a.phi * t.p_hat) AS p
        FROM topics t JOIN ads a ON t.topic = a.topic
        GROUP BY t.edge_id, a.adv
        """,
        topics=pd.DataFrame(dict(zip(("edge_id", "topic", "p_hat"), topics))),
        ads=pd.DataFrame({"adv": ad_topic[0], "topic": ad_topic[1], "phi": phi.ravel()}),
    )


def test_positive_fraction_matches_density():
    """1-(1-d)^L positive-edge fraction — the Table-substitution knob."""
    m, L = 20000, 10
    for density, expect in ((0.137, 0.77), (0.26, 0.95)):
        edge, _, _ = tic_topic_entries(m, L, seed=5, density=density)
        frac = len(np.unique(edge)) / m
        assert abs(frac - expect) < 0.02


def test_wc_probs():
    src, dst = powerlaw_edges(80, 400, seed=9)
    probs = wc_probs(dst, 80)
    for e in range(len(src)):
        assert probs[e] == 1.0 / np.count_nonzero(dst == dst[e])


def test_wc_probs_vs_duckdb():
    src, dst = powerlaw_edges(60, 250, seed=10)
    probs = wc_probs(dst, 60)
    edge = np.flatnonzero(probs)
    assert_equivalent(
        pd.DataFrame({"edge_id": edge, "p": probs[edge]}),
        """
        SELECT e.edge_id, 1.0 / d.indeg AS p
        FROM edges e JOIN (
            SELECT dst, COUNT(*) AS indeg FROM edges GROUP BY dst
        ) d ON e.dst = d.dst
        """,
        edges=pd.DataFrame({"edge_id": np.arange(len(src)), "src": src, "dst": dst}),
    )


def test_collect_edge_adv_probs_zero_fill():
    """Edge-ad pairs with no active topic get probability 0."""
    topics = (np.array([0]), np.array([0]), np.array([0.5]))
    phi = np.array([[1.0, 0.0], [0.0, 1.0]])
    probs = tic_probs(topics, phi, 3)
    assert probs[0, 0] == pytest.approx(0.5)
    assert probs[1, 0] == 0.0 and np.all(probs[:, 1:] == 0.0)
