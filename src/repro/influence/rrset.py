"""Reverse-Reachable set generation with uniform advertiser sampling (§4.1–4.2).

A random RR set under the paper's *uniform sampling* method is generated by
(1) drawing an advertiser i with probability ``cpe(i)/Γ`` and (2) running a
reverse BFS from a uniformly random root with advertiser-i edge
probabilities. Lemma 4.1: ``π(S⃗) = nΓ·E[Λ(S⃗, R)]``, so coverage over a
collection estimates revenue with a single, identically-distributed sample.

RR set k is a pure function of (graph, cpe, kernel, seed, k): ids are cut
into fixed blocks of ``_BLOCK``, and each block has its own RNG stream seeded
with ``[seed, block_start]``. A block always draws a full block of
advertisers and roots, so ``gen(n₁, s)`` is a prefix of ``gen(n₂, s)`` for
n₁ ≤ n₂, and the way the blocks are split into tasks changes nothing.

Generation is the dominant cost of every RR-set algorithm (Appendix C), so
it is the distributed piece: a task DataFrame (one row per id block) flows
through ``mapInPandas`` with the CSR graph broadcast to executors; member
rows come back as Arrow batches. The driver-local path runs the same block
loop, so both return identical collections. Two kernels share this harness:

- ``standard``: vectorised Bernoulli draw over each frontier node's in-edges
  (O(indeg) per node).
- ``subsim``: subset sampling in the spirit of SUBSIM [34] — geometric
  skipping over each node's in-edges sorted by descending probability,
  thinning each hit by p_j/p_env against a running envelope (O(1 +
  E[#selected]) per node). When the probabilities are all equal (the
  Weighted-Cascade case) the thinning always accepts and draws nothing;
  slices with more than a few expected hits use the standard draw.

Both kernels draw from the *same distribution* over RR sets (tested), which
is the property the paper relies on in Appendix D.2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs.csr import CSRGraph


# ---------------------------------------------------------------------------
# Kernels (top-level so Spark workers can import them)
# ---------------------------------------------------------------------------


def _sample_in_edges_standard(
    v: int, adv_row: int, g: CSRGraph, rng: np.random.Generator, pool=None
) -> np.ndarray:
    """Activated in-neighbours of v: independent Bernoulli per in-edge."""
    lo, hi = g.in_indptr[v], g.in_indptr[v + 1]
    if hi == lo:
        return _EMPTY
    pr = g.in_probs[adv_row, lo:hi]
    u = rng.random(hi - lo)
    return g.in_indices[lo:hi][u < pr]


_EMPTY = np.empty(0, dtype=np.int64)


class _UniformPool:
    """Block-drawn uniforms with scalar reads — scalar Generator calls are
    ~10× slower than amortised block draws, and the SUBSIM loop is all
    scalar draws."""

    __slots__ = ("rng", "buf", "pos")

    def __init__(self, rng: np.random.Generator, block: int = 1 << 14):
        self.rng = rng
        self.buf = rng.random(block)
        self.pos = 0

    def next(self) -> float:
        buf, pos = self.buf, self.pos
        if pos >= len(buf):
            self.buf = buf = self.rng.random(len(buf))
            self.pos = pos = 0
        self.pos = pos + 1
        return buf[pos]


# Above this expected number of envelope hits, vectorised Bernoulli beats the
# scalar skipping loop (numpy does O(d) work at C speed; the loop does
# O(1 + d·p̄) at Python speed).
_SUBSIM_HIT_CUTOFF = 4.0


def _sample_in_edges_subsim(
    v: int, adv_row: int, g: CSRGraph, rng: np.random.Generator, pool: _UniformPool
) -> np.ndarray:
    """Activated in-neighbours of v via subset sampling (SUBSIM-style).

    Sorted-descending envelope with geometric skipping: position j is an
    envelope hit with probability p_env (the max of the remaining probs),
    and a hit survives thinning with p_j/p_env, so each position is selected
    with exactly p_j, independently. Under equal probabilities (the
    Weighted-Cascade case) the thinning always accepts. Geometric jumps are
    drawn by inversion from the uniform pool. Work is O(1 + #hits) instead
    of O(indeg); dense high-probability slices fall back to the vectorised
    kernel (hybrid cutoff), which SUBSIM's grouping also does in spirit.
    """
    lo, hi = g.in_indptr[v], g.in_indptr[v + 1]
    d = hi - lo
    if d == 0:
        return _EMPTY
    probs = g.in_probs_sorted[adv_row]
    p_first = probs[lo]
    if p_first <= 0.0:
        return _EMPTY
    if p_first * d > _SUBSIM_HIT_CUTOFF:
        return _sample_in_edges_standard(v, adv_row, g, rng)
    idx = g.in_indices_sorted[adv_row]
    equal = g.in_equal_prob[adv_row, v]
    if equal and p_first >= 1.0:
        return idx[lo:hi]
    out: list[int] = []
    pos = 0
    p_env = p_first
    log1m = math.log1p(-p_env) if p_env < 1.0 else None
    while pos < d:
        if p_env >= 1.0:
            j = pos
        else:
            u = 1.0 - pool.next()  # in (0, 1]
            j = pos + int(math.log(u) / log1m)  # geometric(p_env) - 1 skips
        if j >= d:
            break
        if equal:
            out.append(idx[lo + j])
        else:
            pj = probs[lo + j]
            if pj >= p_env or pool.next() < pj / p_env:
                out.append(idx[lo + j])
            if pj < p_env:
                p_env = pj if pj > 0.0 else 0.0
                if p_env <= 0.0:
                    break
                log1m = math.log1p(-p_env) if p_env < 1.0 else None
        pos = j + 1
    if not out:
        return _EMPTY
    return np.asarray(out, dtype=np.int64)


_KERNELS = {
    "standard": _sample_in_edges_standard,
    "subsim": _sample_in_edges_subsim,
}


# RR ids per RNG stream; tasks are whole blocks.
_BLOCK = 1024


def _n_blocks(n_rr: int) -> int:
    return -(-n_rr // _BLOCK)


def _run_rr_blocks(
    blocks: np.ndarray,
    n_rr: int,
    g: CSRGraph,
    cpe_w: np.ndarray,
    seed: int,
    kernel: str,
):
    """Generate the RR sets of id blocks ``blocks`` (ids below ``n_rr``);
    returns (rr_id, adv, node) rows in id order, root first in each set.

    Block b is deterministic in (seed, b): one RNG stream seeded with
    ``[seed, b * _BLOCK]`` draws a full block of advertisers and roots, then
    all BFS coins of its sets in id order. One stamp buffer serves the call.
    """
    sample = _KERNELS[kernel]
    stamp_buf = np.zeros(g.n, dtype=np.int64)
    stamp = 0
    out_rr: list[int] = []
    out_adv: list[int] = []
    out_node: list[int] = []
    for b in blocks:
        first = int(b) * _BLOCK
        rng = np.random.default_rng([seed, first])
        pool = _UniformPool(rng)
        advs = rng.choice(g.h, size=_BLOCK, p=cpe_w)
        roots = rng.integers(0, g.n, size=_BLOCK)
        for t in range(min(_BLOCK, n_rr - first)):
            stamp += 1
            adv = int(advs[t])
            adv_row = 0 if g.shared_probs else adv
            root = int(roots[t])
            stamp_buf[root] = stamp
            members = [root]
            frontier = [root]
            while frontier:
                new: list[int] = []
                for v in frontier:
                    for w in sample(v, adv_row, g, rng, pool):
                        w = int(w)
                        if stamp_buf[w] != stamp:
                            stamp_buf[w] = stamp
                            new.append(w)
                members.extend(new)
                frontier = new
            out_rr.extend([first + t] * len(members))
            out_adv.extend([adv] * len(members))
            out_node.extend(members)
    return (
        np.asarray(out_rr, dtype=np.int64),
        np.asarray(out_adv, dtype=np.int64),
        np.asarray(out_node, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# RR collection (driver-side CSR layouts over generated sets)
# ---------------------------------------------------------------------------


def _ptr(counts: np.ndarray) -> np.ndarray:
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


@dataclass
class RRCollection:
    """RR sets for coverage-based revenue estimation, in two CSR layouts.

    - RR-major: the members of RR set r are ``members[rr_ptr[r]:rr_ptr[r+1]]``
      in generation order (root first).
    - Key-major (the inverted index driving all greedy selection): the ids
      of the RR sets generated for advertiser ``adv`` that contain ``node``
      are ``rr_ids[key_ptr[k]:key_ptr[k+1]]`` with ``k = adv * n + node``,
      in increasing order.
    """

    n: int
    h: int
    cpe: np.ndarray
    n_rr: int
    rr_adv: np.ndarray  # (n_rr,)
    rr_ptr: np.ndarray  # (n_rr + 1,)
    members: np.ndarray  # node ids, RR-major
    key_ptr: np.ndarray  # (h * n + 1,)
    rr_ids: np.ndarray  # RR ids, key-major

    @classmethod
    def from_rows(cls, n, h, cpe, n_rr, rr_adv, rr_rows, node_rows):
        """Index (rr_id, node) membership rows; rows of one RR set keep
        their order."""
        if np.any(rr_rows[1:] < rr_rows[:-1]):
            order = np.argsort(rr_rows, kind="stable")
            rr_rows, node_rows = rr_rows[order], node_rows[order]
        rr_ptr = _ptr(np.bincount(rr_rows, minlength=n_rr))
        key = rr_adv[rr_rows] * n + node_rows
        key_ptr = _ptr(np.bincount(key, minlength=h * n))
        rr_ids = rr_rows[np.argsort(key, kind="stable")]
        return cls(
            n, h, np.asarray(cpe, dtype=np.float64), n_rr, rr_adv,
            rr_ptr, node_rows, key_ptr, rr_ids,
        )

    @property
    def gamma(self) -> float:
        return float(self.cpe.sum())

    @property
    def factor(self) -> float:
        """π̃ per covered RR set: nΓ/|R| (Lemma 4.1)."""
        return self.n * self.gamma / self.n_rr

    def rr_of_members(self) -> np.ndarray:
        """The RR id of each entry of ``members``."""
        return np.repeat(np.arange(self.n_rr, dtype=np.int64), np.diff(self.rr_ptr))

    def members_of(self, ids: np.ndarray) -> np.ndarray:
        """The members of the RR sets ``ids``, concatenated."""
        starts = self.rr_ptr[ids]
        lens = self.rr_ptr[ids + 1] - starts
        offsets = (starts - lens.cumsum() + lens).repeat(lens)
        return self.members[offsets + np.arange(len(offsets))]

    @cached_property
    def exploded(self) -> pd.DataFrame:
        """(rr_id, adv, node) rows in RR-major order, built on first use."""
        rr = self.rr_of_members()
        return pd.DataFrame(
            {"rr_id": rr, "adv": self.rr_adv[rr], "node": self.members}
        )

    def rr_ids_for(self, node: int, adv: int) -> np.ndarray:
        k = adv * self.n + node
        return self.rr_ids[self.key_ptr[k] : self.key_ptr[k + 1]]

    def covered_count(self, adv: int, nodes) -> int:
        """|{R for adv : R ∩ nodes ≠ ∅}| — advertiser adv's sets hit by nodes."""
        ids = [self.rr_ids_for(int(u), adv) for u in nodes]
        return len(np.unique(np.concatenate(ids))) if ids else 0

    def singleton_cover_counts(self) -> np.ndarray:
        """(h, n) matrix of |{R for adv i : node ∈ R}| — singleton coverage."""
        return np.diff(self.key_ptr).reshape(self.h, self.n)

    def merge(self, other: "RRCollection") -> "RRCollection":
        """Append ``other``'s sets after ours (progressive-sampling doubling).

        Every id of ``self`` precedes every shifted id of ``other``, so each
        key's slice is ours followed by theirs: an O(N) interleave.
        """
        assert self.n == other.n and self.h == other.h
        a_cnt, b_cnt = np.diff(self.key_ptr), np.diff(other.key_ptr)
        key_ptr = self.key_ptr + other.key_ptr
        rr_ids = np.empty(len(self.rr_ids) + len(other.rr_ids), dtype=np.int64)
        rr_ids[
            np.arange(len(self.rr_ids)) + np.repeat(other.key_ptr[:-1], a_cnt)
        ] = self.rr_ids
        rr_ids[
            np.arange(len(other.rr_ids)) + np.repeat(self.key_ptr[1:], b_cnt)
        ] = other.rr_ids + self.n_rr
        return RRCollection(
            self.n,
            self.h,
            self.cpe,
            self.n_rr + other.n_rr,
            np.concatenate([self.rr_adv, other.rr_adv]),
            np.concatenate([self.rr_ptr, other.rr_ptr[1:] + self.rr_ptr[-1]]),
            np.concatenate([self.members, other.members]),
            key_ptr,
            rr_ids,
        )


def _assemble(n, h, cpe, n_rr, rr, adv, node) -> RRCollection:
    rr_adv = np.zeros(n_rr, dtype=np.int64)
    rr_adv[rr] = adv
    return RRCollection.from_rows(n, h, cpe, n_rr, rr_adv, rr, node)


# ---------------------------------------------------------------------------
# Generation entry points
# ---------------------------------------------------------------------------


def from_memberships(
    n: int, h: int, cpe, memberships: list[tuple[int, set]]
) -> RRCollection:
    """Build a collection from explicit (advertiser, node-set) RR sets.

    Used by tests to construct exact coverage instances (e.g. the paper's
    footnote-8 toy example) without sampling.
    """
    rr_adv = np.asarray([adv for adv, _ in memberships], dtype=np.int64)
    sizes = [len(nodes) for _, nodes in memberships]
    rr = np.repeat(np.arange(len(memberships), dtype=np.int64), sizes)
    node = np.fromiter(
        (int(v) for _, nodes in memberships for v in nodes), np.int64, len(rr)
    )
    return RRCollection.from_rows(n, h, cpe, len(memberships), rr_adv, rr, node)


def generate_rr_local(
    csr: CSRGraph,
    cpe: np.ndarray,
    n_rr: int,
    *,
    seed: int,
    kernel: str = "standard",
) -> RRCollection:
    """Driver-only generation: the block loop with no Spark job."""
    cpe = np.asarray(cpe, dtype=np.float64)
    rows = _run_rr_blocks(
        np.arange(_n_blocks(n_rr)), n_rr, csr, cpe / cpe.sum(), seed, kernel
    )
    return _assemble(csr.n, csr.h, cpe, n_rr, *rows)


def generate_rr_collection(
    spark: SparkSession,
    csr: CSRGraph,
    cpe: np.ndarray,
    n_rr: int,
    *,
    seed: int,
    kernel: str = "standard",
    num_partitions: int | None = None,
) -> RRCollection:
    """Distributed generation: block-id DataFrame → mapInPandas → Arrow
    collect. Returns the same collection as ``generate_rr_local``."""
    cpe = np.asarray(cpe, dtype=np.float64)
    n_blocks = _n_blocks(n_rr)
    if num_partitions is None:
        par = spark.sparkContext.defaultParallelism
        num_partitions = max(1, min(par * 2, n_blocks))
    bc = spark.sparkContext.broadcast((csr, cpe / cpe.sum()))

    def gen(batches):
        g, weights = bc.value
        for b in batches:
            rr, adv, node = _run_rr_blocks(
                b["id"].to_numpy(), n_rr, g, weights, seed, kernel
            )
            yield pd.DataFrame({"rr_id": rr, "adv": adv, "node": node})

    tasks = spark.range(0, n_blocks, numPartitions=num_partitions)
    pdf = tasks.mapInPandas(gen, schema="rr_id long, adv long, node long").toPandas()
    bc.unpersist()
    cols = [pdf[c].to_numpy(dtype=np.int64) for c in ("rr_id", "adv", "node")]
    del pdf
    return _assemble(csr.n, csr.h, cpe, n_rr, *cols)
