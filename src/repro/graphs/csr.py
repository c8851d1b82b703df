"""CSR in-adjacency with per-advertiser activation probabilities.

The RR-set kernels traverse *in*-edges (reverse reachability); the layout
is built once per instance and broadcast to executors. Probabilities are
stored aligned to the in-CSR edge order, one row per advertiser (or a
single shared row under the Weighted-Cascade model, where all ads share
``p_uv = 1/indeg(v)``).

For the SUBSIM kernel each node's in-edge slice is also sorted by
probability (descending) per advertiser, so the geometric-skipping sampler
can use the sorted prefix as its envelope. Those arrays are built on first
use and cached on the graph: the standard kernel never reads them, so a
graph that only it samples does not carry them in its broadcast.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class CSRGraph:
    """Immutable graph + influence-probability container."""

    n: int
    m: int
    h: int
    # In-CSR: in_indices[in_indptr[v]:in_indptr[v+1]] are in-neighbours of v.
    in_indptr: np.ndarray
    in_indices: np.ndarray
    # (h, m) probabilities aligned to in-CSR order; (1, m) when shared.
    in_probs: np.ndarray
    shared_probs: bool

    @cached_property
    def subsim_aux(self) -> tuple[np.ndarray, np.ndarray]:
        """SUBSIM auxiliaries: each in-slice sorted by descending probability
        (stable, so ties keep in-CSR order). Built once, on first use."""
        segment = np.repeat(np.arange(self.n), np.diff(self.in_indptr))
        order = np.stack([np.lexsort((-row, segment)) for row in self.in_probs])
        return np.take_along_axis(self.in_probs, order, axis=1), self.in_indices[order]

    # Aligned to in-CSR slices, sorted desc by prob.
    @property
    def in_probs_sorted(self) -> np.ndarray:
        return self.subsim_aux[0]

    @property
    def in_indices_sorted(self) -> np.ndarray:
        return self.subsim_aux[1]


def _csr_order(key: np.ndarray, n: int):
    """Sort edges by ``key``; return (indptr, order) for a CSR over key."""
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, order


def build_csr(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    probs: np.ndarray,
    *,
    h: int,
    shared_probs: bool,
) -> CSRGraph:
    """Assemble the in-CSR layout (the SUBSIM auxiliaries come on first use).

    ``probs`` has shape (h, m) (edge order = input edge order) or (m,) when
    shared across advertisers.
    """
    m = len(src)
    probs2d = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    if shared_probs:
        assert probs2d.shape == (1, m)
    else:
        assert probs2d.shape == (h, m)

    in_indptr, in_order = _csr_order(dst, n)
    in_indices = src[in_order].astype(np.int64)
    # C order: the kernels gather ``in_probs.ravel()[row * m + e]``.
    in_probs = np.ascontiguousarray(probs2d[:, in_order])

    return CSRGraph(
        n=n,
        m=m,
        h=h,
        in_indptr=in_indptr,
        in_indices=in_indices,
        in_probs=in_probs,
        shared_probs=shared_probs,
    )
