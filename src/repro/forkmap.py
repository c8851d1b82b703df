"""``fork_map``: a map over the driver's cores by ``os.fork``.

The driver's CPU work is numpy under the interpreter lock, so threads do not
overlap it. A forked child starts from a copy-on-write snapshot of the
driver, so it reads the graph, the RR index and the coverage state without
pickling any of them; only each item's result comes back, pickled over a
pipe. (A spawned worker would instead start from a fresh import and be
sent all of that state.) The driver has threads (py4j's), of which a child
keeps only the caller's; children run pure numpy, take no lock those threads
hold and never touch Spark: ``gc.freeze`` before the forks keeps a child's
collector from finalizing the parent's py4j objects, and a child leaves by
``os._exit``, so no exit handler or stdio flush of the parent's runs twice.
"""
from __future__ import annotations

import gc
import os
import pickle
import signal
import traceback

_in_child = False  # set in a forked child, so a nested call runs inline


def fork_map(fn, items) -> list:
    """``[fn(x) for x in items]``, computed by one forked child per CPU
    available to the process (at most one per item): child j computes items
    j, j+w, … and the results come back in item order. Runs inline for one
    item, on one CPU, or inside a child. A child's exception is raised here
    as a ``RuntimeError`` carrying its traceback; no child outlives the
    call."""
    items = list(items)
    w = min(len(os.sched_getaffinity(0)), len(items))
    if w <= 1 or _in_child:
        return [fn(x) for x in items]
    gc.freeze()
    pids, reads, done = [], [], False
    try:
        for j in range(w):
            r, wfd = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, items[j::w], wfd)
            finally:
                os.close(wfd)
            pids.append(pid)
        parts = [_receive(r, pid) for r, pid in zip(reads, pids)]
        done = True
    finally:
        for r in reads:
            os.close(r)
        for pid in pids:
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        gc.unfreeze()
    out = [None] * len(items)
    for j, part in enumerate(parts):
        out[j::w] = part
    return out


def _child(fn, items, wfd) -> None:
    """Compute ``fn`` over ``items`` and send ``(ok, results or traceback)``
    down ``wfd``; never returns."""
    global _in_child
    _in_child = True
    code = 1
    try:
        try:
            payload = (True, [fn(x) for x in items])
        except BaseException:
            payload = (False, traceback.format_exc())
        with os.fdopen(wfd, "wb") as f:
            pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _receive(r, pid) -> list:
    """The results child ``pid`` sent down pipe ``r``, read to its end."""
    with os.fdopen(r, "rb", closefd=False) as f:
        data = f.read()
    if not data:
        raise RuntimeError(f"fork_map: child {pid} exited without a result")
    ok, payload = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"fork_map: child {pid} raised:\n{payload}")
    return payload
