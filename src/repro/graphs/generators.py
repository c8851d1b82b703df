"""Deterministic synthetic social-network generators.

The paper's datasets (Flixster, LastFM, DBLP, LiveJournal) are real OSN
graphs with heavy-tailed in/out degree distributions. We generate directed
graphs whose endpoints are drawn from Zipf-like rank distributions over two
independent node permutations, which yields heavy tails on both sides while
staying deterministic in ``seed`` (so tests, benches, and the DuckDB oracle
all see the same graph).
"""
from __future__ import annotations

import numpy as np


def _zipf_ranks(g: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Draw ``size`` node ranks in [0, n) with P(rank=r) ∝ 1/(r+1)^0.85."""
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** 0.85
    w /= w.sum()
    return g.choice(n, size=size, p=w)


def powerlaw_edges(n: int, m_target: int, *, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Directed heavy-tailed graph: (src, dst) arrays, no self-loops/dupes.

    Endpoints come from two independently permuted Zipf rank draws so hub
    nodes on the out side are not the same as on the in side. We oversample
    and dedupe, so the returned edge count is close to (a bit under)
    ``m_target``; exact counts are reported by the Table 1 harness.
    """
    g = np.random.default_rng(seed)
    perm_out = g.permutation(n)
    perm_in = g.permutation(n)
    n_draw = int(m_target * 1.35) + 16
    src = perm_out[_zipf_ranks(g, n, n_draw)]
    dst = perm_in[_zipf_ranks(g, n, n_draw)]
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # Dedupe on the (src, dst) pair; np.unique keeps order-independent
    # determinism.
    key = src.astype(np.int64) * n + dst.astype(np.int64)
    _, idx = np.unique(key, return_index=True)
    idx = np.sort(idx)[:m_target]
    return src[idx].astype(np.int64), dst[idx].astype(np.int64)


def symmetrize(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undirected graph as two directed arcs per edge (DBLP-style), deduped."""
    s = np.concatenate([src, dst])
    d = np.concatenate([dst, src])
    n = int(max(s.max(), d.max())) + 1
    key = s.astype(np.int64) * n + d.astype(np.int64)
    _, idx = np.unique(key, return_index=True)
    idx = np.sort(idx)
    return s[idx], d[idx]


def degree_stats(src: np.ndarray, dst: np.ndarray, n: int) -> dict:
    """Degree summary of an edge list, for the generator's structure tests."""
    out_deg = np.bincount(src, minlength=n)
    in_deg = np.bincount(dst, minlength=n)
    return {
        "n": n,
        "m": int(len(src)),
        "max_out_deg": int(out_deg.max()),
        "max_in_deg": int(in_deg.max()),
        "mean_deg": float(len(src)) / n,
    }
