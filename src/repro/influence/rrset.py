"""Reverse-Reachable set generation with uniform advertiser sampling (§4.1–4.2).

A random RR set under the paper's *uniform sampling* method is generated by
(1) drawing an advertiser i with probability ``cpe(i)/Γ`` and (2) running a
reverse BFS from a uniformly random root with advertiser-i edge
probabilities. Lemma 4.1: ``π(S⃗) = nΓ·E[Λ(S⃗, R)]``, so coverage over a
collection estimates revenue with a single, identically-distributed sample.

RR set k is a pure function of (graph, cpe, kernel, seed, k), drawn from
counters, not from a shared RNG stream (as in Random123's counter-based
generators, Salmon et al., SC 2011): set k's key is output k of a SplitMix64
stream (Steele, Lea & Flood, OOPSLA 2014) seeded by ``seed``, and its
advertiser, its root and every coin are fixed slots of the SplitMix64 stream
seeded with that key. No draw depends on which other sets are simulated in
the same call, chunk or task, so any split of an id range returns the same
sets, ``gen(n₁, s)`` is a prefix of ``gen(n₂, s)`` for n₁ ≤ n₂, and a call
simulates exactly the sets it returns.

Generation is the dominant cost of every RR-set algorithm (Appendix C), so
it is the distributed piece: an RDD of chunk indices (chunk c holds the id
range of ``_CHUNK`` sets from c·_CHUNK) flows through ``mapPartitions``
with the CSR graph broadcast to executors, and each chunk comes back as
three raw buffers (its advertisers, its set lengths and its members, in
the collection's dtypes) that the driver reads with ``np.frombuffer``. The
job is plain Spark core: no query plan, no Arrow, and no ``spark.sql.*``
setting reaches it. A worker imports this module and ``repro.graphs``
without pandas (imported where a DataFrame is built), which saves it about
0.3 s on its first task. The driver-local path simulates the same ranges,
a large request's BFSs spread over the driver's cores by forked children
(``repro.forkmap``), so both return identical collections. Either way a
generated collection only ever takes the RR-major form: per-set
advertisers and lengths, and the members set by set, already in the
collection's dtypes (int32 members, the smallest unsigned advertiser type);
``RRCollection`` bounds a collection to < 2³¹ members.

The sets of a call, one id range or several ``(n_rr, seed)`` blocks side by
side, run as level-synchronous reverse BFSs over up to ``_CHUNK`` (16384)
set keys each: the frontier is a pair of arrays (set slot, node), each
level is a single batched kernel call over the whole frontier, and its new
members are merged into the BFS's sorted visited codes with one scatter.
Two kernels share this harness:

- ``standard``: every in-edge of every frontier entry, gathered with
  ``np.repeat`` over ``in_indptr``, gets one coin (O(indeg) per entry),
  compared as an integer against the edge's ``coin_thresholds`` entry; the
  coins are flipped ``_PASS_COINS`` or so at a time.
- ``subsim``: subset sampling in the spirit of SUBSIM [34] — batched
  geometric skips over each entry's in-edges sorted by descending
  probability, thinning each hit by p_j/p_env against a per-entry running
  envelope (O(1 + E[#selected]) per entry). A hit whose probability equals
  the envelope (every hit under Weighted-Cascade) is kept without a draw;
  entries with more than a few expected hits use the standard draw.

Both kernels draw from the *same distribution* over RR sets (tested), which
is the property the paper relies on in Appendix D.2.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING

import numpy as np
from pyspark.sql import SparkSession

from repro.forkmap import fork_map
from repro.graphs.csr import CSRGraph

if TYPE_CHECKING:
    import pandas as pd


# ---------------------------------------------------------------------------
# Counter-based draws (SplitMix64, Steele, Lea & Flood 2014)
# ---------------------------------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (np.uint64(s) for s in (30, 27, 31, 11))

# Draw slots of a set: its advertiser, its root, then one coin per in-edge.
# The coin of in-edge position e under probability row r is slot
# ``_COIN + r·m + e`` (its flat index into ``in_probs``); SUBSIM's skip and
# thinning draws are keyed by sorted-slice positions under their own salts,
# clear of every coin slot.
_ADV, _ROOT, _COIN = 0, 1, 2
_SKIP = 1 << 40
_THIN = 1 << 41


def _mix(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64's output function, in place on a uint64 array; ``t``, if
    given, is a uint64 scratch array of ``z``'s shape that it overwrites."""
    if t is None:
        t = np.empty_like(z)
    np.right_shift(z, _S30, out=t)
    z ^= t
    z *= _MUL1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _MUL2
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def _stream(key: np.ndarray, slot, base: int = 0) -> np.ndarray:
    """Output ``base + slot`` of the SplitMix64 stream seeded with each key,
    ``mix(key + (base + slot + 1)·γ)``, as uint64. ``slot`` is an int, or a
    non-negative int64 array of ``key``'s shape (or broadcasting ``key``)."""
    if np.ndim(slot) == 0:
        return _mix(key + np.uint64((base + slot + 1) * int(_GAMMA) % 2**64))
    z = slot.view(np.uint64) * _GAMMA
    z += np.uint64((base + 1) * int(_GAMMA) % 2**64)
    z += key
    return _mix(z)


def _uniform(key: np.ndarray, slot, base: int = 0) -> np.ndarray:
    """Draws in [0, 1): the top 53 bits of ``_stream(key, slot, base)``."""
    z = _stream(key, slot, base)
    z >>= _S11
    return z * 2.0**-53


def _set_keys(seed: int, first: int, stop: int) -> np.ndarray:
    """The keys of sets first..stop-1: outputs first..stop-1 of the
    SplitMix64 stream seeded with mix(seed)."""
    base = _mix(np.array([seed % 2**64], dtype=np.uint64))
    return _stream(base, np.arange(first, stop, dtype=np.int64))


# ---------------------------------------------------------------------------
# Kernels (top-level so Spark workers can import them)
# ---------------------------------------------------------------------------


def _slice_positions(lo: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """The positions ``lo[i] .. lo[i] + cnt[i] - 1`` of every slice i,
    concatenated."""
    starts = np.cumsum(cnt) - cnt
    return np.repeat(lo - starts, cnt) + np.arange(cnt.sum())


# Coins per pass of the standard kernel. A frontier is flipped in runs of
# whole entries holding about this many in-edges, so a pass's scratch
# arrays (8 B per coin each) stay near 128 KB however large a level grows.
# Whole-level arrays made glibc grow and trim the heap top at every level
# once a BFS held 8192 sets: a TI-CARM + TI-CSRM run on `lastfm_lite` took
# 136K minor page faults instead of about 1K, and ran 1.14× slower than at
# 4096 sets per BFS.
_PASS_COINS = 1 << 14


def _expand_standard(fs, fv, rows, g: CSRGraph, keys: np.ndarray):
    """Activated in-neighbours of a frontier: one coin per in-edge of every
    frontier entry (set slot ``fs``, node ``fv``, probability row ``rows``),
    each drawn from the set's key. Returns the (slot, in-neighbour) hits,
    flipped ``_PASS_COINS`` coins or so at a time."""
    lo = g.in_indptr[fv]
    cnt = g.in_indptr[fv + 1] - lo
    ends = np.cumsum(cnt)
    total = ends[-1] if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_PASS_COINS, total, _PASS_COINS), "right")
    bounds = [0, *cuts.tolist(), len(fs)]
    hs, hv = zip(*(
        _flip_coins(fs[a:b], lo[a:b], cnt[a:b], rows[a:b], g, keys)
        for a, b in zip(bounds, bounds[1:])
    ))
    return np.concatenate(hs), np.concatenate(hv)


def _flip_coins(fs, lo, cnt, rows, g: CSRGraph, keys: np.ndarray):
    """The hits among the coins of frontier entries whose in-edge slices
    start at ``lo`` and hold ``cnt`` edges.

    The coin of flat ``in_probs`` slot f is ``_stream(key, f, _COIN)``,
    ``mix(key + (f + _COIN + 1)·γ)``. Entry e's coins take the positions i
    from ``ends[e] - cnt[e]`` and the slots f = i + d[e], so the words to
    mix are one value per entry, ``key + (d[e] + _COIN + 1)·γ``, plus i·γ
    (mod 2⁶⁴). A coin lands when its top 53 bits are below the edge's
    ``coin_thresholds`` entry, which is exactly the draw u < p.
    """
    ends = np.cumsum(cnt)
    d = rows * g.m + lo + cnt - ends
    ramp = np.arange(ends[-1] if len(ends) else 0, dtype=np.uint64)
    flat = np.repeat(d, cnt)
    flat += ramp.view(np.int64)
    ramp *= _GAMMA
    d += _COIN + 1
    z = np.repeat(keys[fs] + d.view(np.uint64) * _GAMMA, cnt)
    z += ramp
    _mix(z, ramp)
    z >>= _S11
    hit = np.flatnonzero(z < g.coin_thresholds[flat])
    entry = np.searchsorted(ends, hit, side="right")
    return fs[entry], g.in_indices[flat[hit] % g.m]


# Above this expected number of envelope hits, an entry takes the standard
# draw: one vectorised pass over its slice beats a skipping loop that runs
# once per hit (bench_rrgen.py with counter-based draws: without it, SUBSIM
# is 1.9x slower on the TI-shaped calls, 2.8x on TIC and 1.3x on WC).
_SUBSIM_HIT_CUTOFF = 4.0


def _expand_subsim(fs, fv, rows, g: CSRGraph, keys: np.ndarray):
    """Activated in-neighbours of a frontier via subset sampling (SUBSIM-style).

    Each entry walks its in-edge slice sorted by descending probability with
    geometric skips: a position is an envelope hit with probability p_env
    (the probability of the entry's last hit, an upper bound on every later
    one), and a hit survives thinning with p_j/p_env, so each position is
    selected with exactly p_j, independently. Under equal probabilities (the
    Weighted-Cascade case) the thinning always accepts and draws nothing.
    A skip is drawn at slot ``_SKIP + q`` of the set's key, q the sorted-slice
    position it starts from, and a thinning draw at ``_THIN + q`` of the hit.
    One pass of the loop advances every live entry to its next hit; work is
    O(1 + #hits) per entry instead of O(indeg). Entries expecting more than
    ``_SUBSIM_HIT_CUTOFF`` hits take the standard draw instead.
    """
    probs_sorted, indices_sorted = g.subsim_aux
    lo = g.in_indptr[fv]
    d = g.in_indptr[fv + 1] - lo
    k = np.flatnonzero(d)
    p_env = probs_sorted[rows[k], lo[k]]
    dense = p_env * d[k] > _SUBSIM_HIT_CUTOFF
    kd = k[dense]
    hs, hv = _expand_standard(fs[kd], fv[kd], rows[kd], g, keys)
    out_s, out_v = [hs], [hv]
    light = ~dense & (p_env > 0.0)
    k, p_env = k[light], p_env[light]
    fs, lo, d, rows = fs[k], lo[k], d[k], rows[k]
    key = keys[fs]
    pos = np.zeros(len(k), dtype=np.int64)
    with np.errstate(divide="ignore"):  # p_env = 1: log1p(-1) = -inf, no skip
        while len(fs):
            u = _uniform(key, lo + pos, _SKIP)
            skip = np.log1p(-u) / np.log1p(-p_env)
            j = pos + np.minimum(skip, d).astype(np.int64)
            hit = j < d
            e = lo + np.minimum(j, d - 1)
            pj = probs_sorted[rows, e]
            thin = hit & (pj < p_env)
            keep = hit & ~thin
            keep[thin] = _uniform(key[thin], e[thin], _THIN) < pj[thin] / p_env[thin]
            out_s.append(fs[keep])
            out_v.append(indices_sorted[rows[keep], e[keep]])
            p_env = np.where(thin, pj, p_env)
            pos = j + 1
            live = np.flatnonzero(hit & (pos < d) & (p_env > 0.0))
            fs, lo, d, rows = fs[live], lo[live], d[live], rows[live]
            p_env, pos, key = p_env[live], pos[live], key[live]
    return np.concatenate(out_s), np.concatenate(out_v)


_EMPTY = np.empty(0, dtype=np.int32)

_KERNELS = {
    "standard": _expand_standard,
    "subsim": _expand_subsim,
}


# Sets per reverse BFS. A larger batch pays the per-level cost of a BFS
# (about 30 numpy calls and a pass over the visited codes) for more sets,
# while the standard kernel's scratch arrays stay at one pass of
# `_PASS_COINS` coins, whatever the level size. With this kernel, `ti_lastfm`
# `cell_s` was 0.96× the old kernel's at 4096 sets per BFS (flipping whole
# levels) and 0.85× at 16384 (perfbench/run.py, 4-vCPU VM, `local[4]`, 7
# paired runs). SUBSIM, whose skip loop runs once per hit, gains most: the
# generation calls of an `rma_dblp_wc` cell took 0.62× as long at 16384 as
# at 4096. The batch changes no set, only speed and peak memory.
_CHUNK = 16384


def _simulate(keys: np.ndarray, g: CSRGraph, cdf, kernel: str):
    """The RR sets of ``keys`` (one key per set) as one level-synchronous
    reverse BFS; returns each set's advertiser and length, and the members
    of all sets in key order: root first in each set, then level by level,
    each level in node order.

    The frontier is a pair of arrays (set slot, node), each level is one
    kernel call over the whole frontier, and its hits are deduplicated
    against the visited codes ``slot * n + node``, kept sorted: the new
    codes, sorted by ``np.unique``, are scattered into a merged array and
    the old codes fill the slots left over, with no re-sort. Advertisers
    come back in the collection's ``rr_adv`` dtype, lengths and members as
    int32.
    """
    expand = _KERNELS[kernel]
    n, n_sets = g.n, len(keys)
    advs = np.searchsorted(cdf, _uniform(keys, _ADV), side="right")
    roots = (_uniform(keys, _ROOT) * n).astype(np.int64)
    rows = advs if len(g.in_probs) > 1 else np.zeros_like(advs)
    slots = np.arange(n_sets, dtype=np.int64)
    # Larger than every code: keeps searchsorted inside the visited array.
    sentinel = np.array([n_sets * n], dtype=np.int64)
    visited = np.concatenate([slots * n + roots, sentinel])
    level_s, level_v = [slots], [roots]
    fs, fv = slots, roots
    while len(fs):
        hs, hv = expand(fs, fv, rows[fs], g, keys)
        codes = np.unique(hs * n + hv)
        at = np.searchsorted(visited, codes)
        fresh = visited[at] != codes
        new = codes[fresh]
        # Merge the sorted new codes into the sorted visited array: the k-th
        # new code lands k places after its insertion point, and the old
        # codes keep their order in the slots left over.
        pos = at[fresh]
        pos += np.arange(len(new))
        merged = np.empty(len(visited) + len(new), dtype=np.int64)
        merged[pos] = new
        old = np.ones(len(merged), dtype=bool)
        old[pos] = False
        merged[old] = visited
        visited = merged
        fs, fv = np.divmod(new, n)
        level_s.append(fs)
        level_v.append(fv)
    s, v = np.concatenate(level_s), np.concatenate(level_v)
    lengths = np.bincount(s, minlength=n_sets).astype(np.int32)
    members = v[_stable_order(s, n_sets)].astype(np.int32)
    return advs.astype(_adv_dtype(len(cdf))), lengths, members


def _rr_sets(keys: np.ndarray, g: CSRGraph, cpe_w, kernel: str, map_chunks=map):
    """(advertiser, length) of the RR set of each key and their members,
    set by set, ``_CHUNK`` sets per BFS, the BFSs run by ``map_chunks``
    (``map``, or ``fork_map`` to spread them over the driver's cores).

    A set is a pure function of (graph, cpe, kernel, key): its advertiser,
    root and every coin are fixed slots of its key's own stream. No draw
    depends on which other sets are simulated with it, so any split of the
    keys into calls, chunks, processes or Spark tasks returns the same sets.
    """
    cdf = np.cumsum(cpe_w)
    cdf /= cdf[-1]
    chunks = [keys[lo : lo + _CHUNK] for lo in range(0, len(keys), _CHUNK)]
    parts = list(map_chunks(partial(_simulate, g=g, cdf=cdf, kernel=kernel), chunks))
    if not parts:
        return _EMPTY, _EMPTY, _EMPTY
    return tuple(np.concatenate(col) for col in zip(*parts))


# ---------------------------------------------------------------------------
# RR collection (driver-side CSR layouts over generated sets)
# ---------------------------------------------------------------------------


# Every offset of a collection is at most its member count, and every set
# holds its root, so int32 offsets and set ids hold any collection of fewer
# than 2³¹ members.
_MAX_MEMBERS = 2**31 - 1


def _check_members(total: int) -> None:
    if total > _MAX_MEMBERS:
        raise OverflowError(
            f"an RR collection of {total} members exceeds the int32 index "
            f"bound of {_MAX_MEMBERS}"
        )


def _ptr(counts: np.ndarray) -> np.ndarray:
    """int32 offsets of consecutive slices of ``counts`` entries each."""
    _check_members(int(counts.sum()))
    ptr = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _adv_dtype(h: int) -> np.dtype:
    """The smallest unsigned dtype holding advertiser ids 0..h-1."""
    return np.min_scalar_type(max(h - 1, 0))


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for keys in [0, bound). Keys that
    fit in 16 bits are sorted as uint16, which NumPy radix-sorts in O(N)."""
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


@dataclass
class RRCollection:
    """RR sets for coverage-based revenue estimation, in two CSR layouts.

    - RR-major: the members of RR set r are ``members[rr_ptr[r]:rr_ptr[r+1]]``
      in generation order (root first).
    - Key-major (the inverted index driving all greedy selection): the ids
      of the RR sets generated for advertiser ``adv`` that contain ``node``
      are ``rr_ids[key_ptr[k]:key_ptr[k+1]]`` with ``k = adv * n + node``,
      in increasing order.

    A collection is made RR-major; the key-major index is built from it the
    first time ``key_ptr``, ``rr_ids`` or a reader of them is used, and then
    kept. A collection only ever counted whole allocations on
    (``covered_counts``) or read set by set never holds one.

    ``members``, ``rr_ids`` and both offset arrays are int32, which bounds a
    collection to fewer than 2³¹ members (checked; every set holds its root,
    so ids and offsets fit too); ``rr_adv`` is the smallest unsigned dtype
    that holds h. h is ``len(cpe)`` and |R| is ``len(rr_adv)``, read off the
    arrays.
    """

    n: int
    cpe: np.ndarray  # (h,) float64
    rr_adv: np.ndarray  # (n_rr,) uint8 up to h = 256
    rr_ptr: np.ndarray  # (n_rr + 1,) int32
    members: np.ndarray  # node ids, RR-major, int32
    # (key_ptr, rr_ids) once built: (h * n + 1,) and RR ids, key-major, int32
    _index: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def from_sets(cls, n, cpe, rr_adv, rr_len, members):
        """RR sets given set by set: set r has advertiser ``rr_adv[r]`` and
        the next ``rr_len[r]`` entries of ``members``. Inputs of any integer
        dtype are stored in the collection's dtypes."""
        cpe = np.asarray(cpe, dtype=np.float64)
        return cls(
            n,
            cpe,
            rr_adv.astype(_adv_dtype(len(cpe)), copy=False),
            _ptr(rr_len),
            members.astype(np.int32, copy=False),
        )

    def _member_keys(self) -> np.ndarray:
        """The key ``adv·n + node`` of each entry of ``members``."""
        h, n = self.h, self.n
        # Cast before the multiply (a uint8 advertiser times n wraps in
        # uint16), to int32 whenever every key k = adv·n + node < h·n fits.
        key = np.repeat(self.rr_adv, np.diff(self.rr_ptr)).astype(
            np.int32 if h * n < 2**31 else np.int64
        )
        key *= n
        key += self.members
        return key

    def _build_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(key_ptr, rr_ids) of the RR-major arrays: a stable sort of the
        members by key, so each key's set ids come out increasing."""
        bound = self.h * self.n
        key = self._member_keys()
        key_ptr = _ptr(np.bincount(key, minlength=bound))
        rr = np.repeat(np.arange(self.n_rr, dtype=np.int32), np.diff(self.rr_ptr))
        return key_ptr, rr[_stable_order(key, bound)]

    def _indexed(self) -> tuple[np.ndarray, np.ndarray]:
        if self._index is None:
            self._index = self._build_index()
        return self._index

    # Cached, so that after the first read each is a plain attribute:
    # selection reads both at every coverage update.
    @cached_property
    def key_ptr(self) -> np.ndarray:  # (h * n + 1,) int32
        return self._indexed()[0]

    @cached_property
    def rr_ids(self) -> np.ndarray:  # RR ids, key-major, int32
        return self._indexed()[1]

    @property
    def h(self) -> int:
        return len(self.cpe)

    @property
    def n_rr(self) -> int:
        return len(self.rr_adv)

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

    @property
    def nbytes(self) -> int:
        """Bytes held by the collection's arrays (the index of Fig. 4), the
        key-major index counted only once it is built."""
        arrays = (self.cpe, self.rr_adv, self.rr_ptr, self.members, *(self._index or ()))
        return sum(a.nbytes for a in arrays)

    def members_of(self, ids: np.ndarray) -> np.ndarray:
        """The members of the RR sets ``ids``, concatenated."""
        ids = ids.astype(np.intp, copy=False)  # one cast for both offset gathers
        starts = self.rr_ptr[ids]
        return self.members[_slice_positions(starts, self.rr_ptr[ids + 1] - starts)]

    @cached_property
    def exploded(self) -> pd.DataFrame:
        """(rr_id, adv, node) int64 rows in RR-major order, built on first
        use (int64, as Spark's Arrow conversion takes no unsigned column)."""
        import pandas as pd  # here, so a Spark worker importing this module skips it

        rr = self.rr_of_members()
        return pd.DataFrame(
            {"rr_id": rr, "adv": self.rr_adv[rr].astype(np.int64),
             "node": self.members.astype(np.int64)}
        )

    def rr_ids_for(self, node: int, adv: int) -> np.ndarray:
        k = adv * self.n + node
        return self.rr_ids[self.key_ptr[k] : self.key_ptr[k + 1]]

    def rr_ids_of(self, adv: int, nodes) -> np.ndarray:
        """``rr_ids_for(u, adv)`` of every u in ``nodes``, concatenated (a
        set hit by several nodes appears once per node)."""
        keys = adv * self.n + np.fromiter(nodes, dtype=np.int64)
        starts = self.key_ptr[keys]
        return self.rr_ids[_slice_positions(starts, self.key_ptr[keys + 1] - starts)]

    def covered_count(self, adv: int, nodes) -> int:
        """|{R for adv : R ∩ nodes ≠ ∅}| — advertiser adv's sets hit by nodes."""
        return len(np.unique(self.rr_ids_of(adv, nodes)))

    def covered_counts(self, allocation) -> np.ndarray:
        """Per-advertiser number of sets covered by an allocation
        (S_1, …, S_h): a set generated for advertiser i is covered iff it
        meets S_i. One RR-major pass that reads no index: each member looks
        up its (set advertiser, node) pair in an (h, n) seed mask."""
        h, n = self.h, self.n
        seeds = np.zeros(h * n, dtype=bool)
        for i, nodes in enumerate(allocation):
            seeds[i * n + np.fromiter(nodes, dtype=np.int64)] = True
        hit = np.flatnonzero(seeds[self._member_keys()])
        # The set of member position p is the last one starting at or before
        # p (an empty set shares its start with the next one).
        sets = np.unique(np.searchsorted(self.rr_ptr, hit, side="right") - 1)
        return np.bincount(self.rr_adv[sets], minlength=h)

    def singleton_cover_counts(self) -> np.ndarray:
        """(h, n) matrix of |{R for adv i : node ∈ R}| — singleton coverage:
        a ``bincount`` of the member keys, which reads no index."""
        counts = np.bincount(self._member_keys(), minlength=self.h * self.n)
        return counts.reshape(self.h, self.n)

    def merge(self, other: "RRCollection") -> "RRCollection":
        """Append ``other``'s sets after ours (progressive-sampling doubling).

        Without an index on either side this is a concatenation. Otherwise
        the missing side is indexed and the two interleaved: every id of
        ``self`` precedes every shifted id of ``other``, so each key's slice
        is ours followed by theirs, an O(N) pass.
        """
        assert self.n == other.n and self.h == other.h
        _check_members(len(self.members) + len(other.members))
        merged = RRCollection(
            self.n,
            self.cpe,
            np.concatenate([self.rr_adv, other.rr_adv]),
            np.concatenate([self.rr_ptr, other.rr_ptr[1:] + self.rr_ptr[-1]]),
            np.concatenate([self.members, other.members]),
        )
        if self._index is None and other._index is None:
            return merged
        (a_ptr, a_ids), (b_ptr, b_ids) = self._indexed(), other._indexed()
        rr_ids = np.empty(len(a_ids) + len(b_ids), dtype=np.int32)
        at = np.repeat(b_ptr[:-1], np.diff(a_ptr))
        at += np.arange(len(a_ids), dtype=np.int32)
        rr_ids[at] = a_ids
        at = np.repeat(a_ptr[1:], np.diff(b_ptr))
        at += np.arange(len(b_ids), dtype=np.int32)
        rr_ids[at] = b_ids + np.int32(self.n_rr)
        merged._index = (a_ptr + b_ptr, rr_ids)
        return merged


# ---------------------------------------------------------------------------
# Generation entry points
# ---------------------------------------------------------------------------


def from_memberships(n: int, cpe, memberships: list[tuple[int, set]]) -> RRCollection:
    """Build a collection from explicit (advertiser, node-set) RR sets.

    Used by tests to construct exact coverage instances (e.g. the paper's
    footnote-8 toy example) without sampling.
    """
    rr_adv = np.asarray([adv for adv, _ in memberships], dtype=np.int64)
    rr_len = np.asarray([len(nodes) for _, nodes in memberships], dtype=np.int64)
    members = np.fromiter(
        (int(v) for _, nodes in memberships for v in nodes), np.int64, rr_len.sum()
    )
    return RRCollection.from_sets(n, cpe, rr_adv, rr_len, members)


def generate_rr_local(
    csr: CSRGraph,
    cpe: np.ndarray,
    n_rr: int | Sequence[tuple[int, int]],
    *,
    seed: int | None = None,
    kernel: str = "standard",
    fork: bool = False,
) -> RRCollection:
    """Driver-only generation of RR sets, renumbered from 0, with no Spark
    job.

    ``n_rr`` is a set count or a list of ``(n_j, s_j)`` blocks. A count
    gives sets 0..n_rr-1 of (seed, kernel), the one block ``(n_rr, seed)``.
    A block list (with no ``seed``) gives sets 0..n_j-1 of each seed s_j,
    in block order: set k of block j is set k of
    ``generate_rr_local(csr, cpe, n_j, seed=s_j)``. The blocks share each
    ``_CHUNK``-set BFS, so many small blocks pay the per-level cost of one.
    With ``fork`` the BFSs are spread over the driver's cores
    (``fork_map``), which pays only for enough work: ``instances._generate``
    sets it from a request's expected members. The sets do not change.
    """
    cpe = np.asarray(cpe, dtype=np.float64)
    blocks = n_rr if seed is None else [(n_rr, seed)]
    keys = np.concatenate(
        [np.empty(0, dtype=np.uint64)] + [_set_keys(s, 0, n) for n, s in blocks]
    )
    sets = _rr_sets(keys, csr, cpe / cpe.sum(), kernel, fork_map if fork else map)
    return RRCollection.from_sets(csr.n, cpe, *sets)


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
    """Distributed generation: an RDD of chunk indices (chunk c holds sets
    c·_CHUNK .. (c+1)·_CHUNK-1) → mapPartitions, three raw buffers per
    chunk (advertisers, lengths, members) → collect. Returns the same
    collection as ``generate_rr_local``.

    Set ids are the collect order: the chunks become partitions in order
    and each task yields its chunks in order, with no shuffle in between.
    """
    cpe = np.asarray(cpe, dtype=np.float64)
    sc = spark.sparkContext
    chunk = _CHUNK  # read once: the workers use the driver's value
    n_chunks = -(-n_rr // chunk)
    if num_partitions is None:
        # One task per core: a second wave of tasks cost about 0.2 s at
        # `local[4]`, more than it balanced (4-vCPU VM).
        num_partitions = max(1, min(sc.defaultParallelism, n_chunks))
    if kernel == "subsim":
        csr.subsim_aux  # built once here, so the broadcast carries it
    bc = sc.broadcast((csr, cpe / cpe.sum()))

    def gen(chunks):
        g, weights = bc.value
        for c in chunks:
            lo = c * chunk
            keys = _set_keys(seed, lo, min(lo + chunk, n_rr))
            for col in _rr_sets(keys, g, weights, kernel):
                yield col.tobytes()

    tasks = sc.parallelize(range(n_chunks), num_partitions)
    buffers = tasks.mapPartitions(gen).collect()
    bc.unpersist()
    # Each chunk sent (advertisers, lengths, members), in the kernel's
    # dtypes; the leading empty array types a column when no chunk runs.
    adv, rr_len, members = (
        np.concatenate([np.empty(0, dt)] + [np.frombuffer(b, dt) for b in buffers[i::3]])
        for i, dt in enumerate((_adv_dtype(len(cpe)), np.int32, np.int32))
    )
    return RRCollection.from_sets(csr.n, cpe, adv, rr_len, members)
