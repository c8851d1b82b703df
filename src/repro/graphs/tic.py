"""Topic-aware Independent Cascade (TIC) and Weighted-Cascade models.

Under TIC (Barbieri et al. [9], as used by the paper) each edge (u, v)
carries per-topic probabilities ``p̂^z_{uv}`` and each ad i a topic mixture
``φ_i``; the ad-specific activation probability is
``p^i_{uv} = Σ_z φ_i(z) · p̂^z_{uv}``. Under Weighted Cascade (§5.2.3) all
ads share ``p_uv = 1/indeg(v)``.

Both are computed on the driver with numpy: the inputs are driver arrays
and the RR kernels read a dense (h, m) array, so a distributed join +
group-by would only add a shuffle round trip. The tests check the mixing
against the same join + group-by written as SQL in DuckDB
(``assert_equivalent`` in the tests' ``oracle`` module).

The paper learns ``p̂^z`` from action logs; we sample sparse per-topic
probabilities with a per-preset density chosen to match the paper's reported
fraction of positive edge-ad probabilities (~95% Flixster, ~77% LastFM).
"""
from __future__ import annotations

import numpy as np


def tic_topic_entries(
    m: int,
    L: int,
    *,
    seed: int,
    density: float = 0.3,
    p_max: float = 0.3,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse per-topic edge probabilities as (edge_id, topic, p_hat) arrays.

    Each (edge, topic) pair is active with probability ``density``; active
    pairs get p̂ ~ U(0.01, p_max). Only nonzero entries are materialised,
    edge-major.
    """
    g = np.random.default_rng(seed)
    active = g.random((m, L)) < density
    edge_id, topic = np.nonzero(active)
    p_hat = g.uniform(0.01, p_max, size=len(edge_id))
    return edge_id, topic, p_hat


def ad_mixtures(h: int, L: int, *, seed: int) -> np.ndarray:
    """Per-ad topic distributions φ_i: (h, L), rows sum to 1.

    A small Dirichlet concentration (0.25) makes each ad load on a few
    topics, as learned mixtures do.
    """
    g = np.random.default_rng(seed)
    x = g.gamma(0.25, size=(h, L))
    x = np.maximum(x, 1e-12)
    return x / x.sum(axis=1, keepdims=True)


def tic_probs(entries: tuple, phi: np.ndarray, m: int) -> np.ndarray:
    """p^i_{uv} = Σ_z φ_i(z)·p̂^z_{uv} as a dense (h, m) array, from
    ``tic_topic_entries``' (edge_id, topic, p_hat) arrays.

    Topics are added one at a time in the order z = 0..L-1, so every entry
    is the same left-to-right sum on any machine (a BLAS matmul leaves the
    summation order open). Edge-ad pairs with no active topic stay 0.
    """
    edge, topic, p_hat = entries
    probs = np.zeros((phi.shape[0], m), dtype=np.float64)
    for z in range(phi.shape[1]):
        on = topic == z  # an edge holds each topic at most once
        probs[:, edge[on]] += phi[:, z, None] * p_hat[on]
    return probs


def wc_probs(dst: np.ndarray, n: int) -> np.ndarray:
    """Weighted-Cascade probabilities p_uv = 1/indeg(v), one per edge."""
    return 1.0 / np.bincount(dst, minlength=n)[dst]
