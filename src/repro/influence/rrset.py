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
loop, so both return identical collections.

A block is one level-synchronous reverse BFS over all of its sets: the
frontier is a pair of arrays (set slot, node), and each level is a single
batched kernel call over the whole frontier. Two kernels share this harness:

- ``standard``: every in-edge of every frontier entry, gathered with
  ``np.repeat`` over ``in_indptr``, gets one uniform draw (O(indeg) per
  entry).
- ``subsim``: subset sampling in the spirit of SUBSIM [34] — batched
  geometric skips over each entry's in-edges sorted by descending
  probability, thinning each hit by p_j/p_env against a per-entry running
  envelope (O(1 + E[#selected]) per entry). When the probabilities are all
  equal (the Weighted-Cascade case) the thinning always accepts and draws
  nothing; entries with more than a few expected hits use the standard draw.

Both kernels draw from the *same distribution* over RR sets (tested), which
is the property the paper relies on in Appendix D.2.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs.csr import CSRGraph


# ---------------------------------------------------------------------------
# Kernels (top-level so Spark workers can import them)
# ---------------------------------------------------------------------------


def _slice_positions(lo: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """The positions ``lo[i] .. lo[i] + cnt[i] - 1`` of every slice i,
    concatenated."""
    starts = np.cumsum(cnt) - cnt
    return np.repeat(lo - starts, cnt) + np.arange(cnt.sum())


def _expand_standard(fs, fv, rows, g: CSRGraph, rng: np.random.Generator):
    """Activated in-neighbours of a frontier: one uniform draw per in-edge of
    every frontier entry (set slot ``fs``, node ``fv``, probability row
    ``rows``). Returns the (slot, in-neighbour) hits."""
    lo = g.in_indptr[fv]
    cnt = g.in_indptr[fv + 1] - lo
    e = _slice_positions(lo, cnt)
    hit = rng.random(len(e)) < g.in_probs[np.repeat(rows, cnt), e]
    return np.repeat(fs, cnt)[hit], g.in_indices[e[hit]]


# Above this expected number of envelope hits, an entry takes the standard
# draw: one vectorised pass over its slice beats a skipping loop that runs
# once per hit (bench_rrgen.py: without it, SUBSIM is 2.3-2.6x slower on the
# TIC cases and 1.25x on the WC one).
_SUBSIM_HIT_CUTOFF = 4.0


def _expand_subsim(fs, fv, rows, g: CSRGraph, rng: np.random.Generator):
    """Activated in-neighbours of a frontier via subset sampling (SUBSIM-style).

    Each entry walks its in-edge slice sorted by descending probability with
    geometric skips: a position is an envelope hit with probability p_env
    (the probability of the entry's last hit, an upper bound on every later
    one), and a hit survives thinning with p_j/p_env, so each position is
    selected with exactly p_j, independently. Under equal probabilities (the
    Weighted-Cascade case) the thinning always accepts and draws nothing.
    One pass of the loop advances every live entry to its next hit; work is
    O(1 + #hits) per entry instead of O(indeg). Entries expecting more than
    ``_SUBSIM_HIT_CUTOFF`` hits take the standard draw instead.
    """
    lo = g.in_indptr[fv]
    d = g.in_indptr[fv + 1] - lo
    k = np.flatnonzero(d)
    p_env = g.in_probs_sorted[rows[k], lo[k]]
    dense = p_env * d[k] > _SUBSIM_HIT_CUTOFF
    kd = k[dense]
    hs, hv = _expand_standard(fs[kd], fv[kd], rows[kd], g, rng)
    out_s, out_v = [hs], [hv]
    light = ~dense & (p_env > 0.0)
    k, p_env = k[light], p_env[light]
    fs, lo, d, rows = fs[k], lo[k], d[k], rows[k]
    equal = g.in_equal_prob[rows, fv[k]]
    pos = np.zeros(len(k), dtype=np.int64)
    with np.errstate(divide="ignore"):  # p_env = 1: log1p(-1) = -inf, no skip
        while len(fs):
            skip = np.log1p(-rng.random(len(fs))) / np.log1p(-p_env)
            j = pos + np.minimum(skip, d).astype(np.int64)
            hit = j < d
            e = lo + np.minimum(j, d - 1)
            pj = g.in_probs_sorted[rows, e]
            thin = hit & ~equal & (pj < p_env)
            keep = hit & ~thin
            keep[thin] = rng.random(np.count_nonzero(thin)) < pj[thin] / p_env[thin]
            out_s.append(fs[keep])
            out_v.append(g.in_indices_sorted[rows[keep], e[keep]])
            p_env = np.where(thin, pj, p_env)
            pos = j + 1
            live = np.flatnonzero(hit & (pos < d) & (p_env > 0.0))
            fs, lo, d, rows = fs[live], lo[live], d[live], rows[live]
            p_env, equal, pos = p_env[live], equal[live], pos[live]
    return np.concatenate(out_s), np.concatenate(out_v)


_EMPTY = np.empty(0, dtype=np.int64)

_KERNELS = {
    "standard": _expand_standard,
    "subsim": _expand_subsim,
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
    returns (rr_id, adv, node) rows in id order, root first in each set, then
    the members level by level.

    Block b is deterministic in (seed, b): one RNG stream seeded with
    ``[seed, b * _BLOCK]`` draws a full block of advertisers and roots, then
    runs one level-synchronous reverse BFS over all ``_BLOCK`` sets: the
    frontier is a pair of arrays (set slot, node), each level is one kernel
    call over the whole frontier, and new members are deduplicated against
    the block's visited keys ``slot * n + node``. The block is always
    simulated in full and cut at ``n_rr`` afterwards, so a set's coins never
    depend on how many ids of its block were asked for.
    """
    expand = _KERNELS[kernel]
    n = g.n
    slots = np.arange(_BLOCK, dtype=np.int64)
    # Larger than every key: keeps searchsorted inside the visited array.
    sentinel = np.array([_BLOCK * n], dtype=np.int64)
    out_rr, out_adv, out_node = [], [], []
    for b in blocks:
        first = int(b) * _BLOCK
        rng = np.random.default_rng([seed, first])
        advs = rng.choice(g.h, size=_BLOCK, p=cpe_w)
        roots = rng.integers(0, n, size=_BLOCK)
        rows = np.zeros_like(advs) if g.shared_probs else advs
        visited = np.concatenate([slots * n + roots, sentinel])
        level_s, level_v = [slots], [roots]
        fs, fv = slots, roots
        while len(fs):
            hs, hv = expand(fs, fv, rows[fs], g, rng)
            keys = np.unique(hs * n + hv)
            new = keys[visited[np.searchsorted(visited, keys)] != keys]
            visited = np.sort(np.concatenate([visited, new]))
            fs, fv = np.divmod(new, n)
            level_s.append(fs)
            level_v.append(fv)
        s, v = np.concatenate(level_s), np.concatenate(level_v)
        order = np.argsort(s, kind="stable")
        s, v = s[order], v[order]
        cut = np.searchsorted(s, n_rr - first)
        out_rr.append(first + s[:cut])
        out_adv.append(advs[s[:cut]])
        out_node.append(v[:cut])
    if not out_rr:
        return _EMPTY, _EMPTY, _EMPTY
    return np.concatenate(out_rr), np.concatenate(out_adv), np.concatenate(out_node)


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
        return self.members[_slice_positions(starts, self.rr_ptr[ids + 1] - starts)]

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
