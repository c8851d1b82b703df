"""In-memory span tracer that wraps the module-level names each layer is
called through.

Code under ``src/`` calls a layer through the name bound in the *calling*
module: ``from repro.core.threshold_greedy import threshold_greedy`` binds
it in ``repro.core.search``, so wrapping it at its definition would miss
every call. ``Tracer.patch`` replaces the name where the caller looks it
up, in the module object from ``sys.modules`` (the package attribute
``repro.core.search`` is the re-exported function, not the module), and
``Tracer.restore`` puts every original back.

A span is (name, start, end, parent). Self time is a span's duration minus
the time its direct children cover; the driver is single-threaded, so
children never overlap and the subtraction is exact.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Spans kept in memory; ``patch`` wraps names, ``restore`` unwraps."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def close(self, sid: int, **counts) -> Span:
        span = self.spans[sid]
        span.end = time.perf_counter()
        span.counts.update(counts)
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            self.spans[span.parent].child_s += span.dur
        return span

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    # -- wrapping ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``owner`` is a module name (looked up in ``sys.modules``) or a
        class. ``count(args, kwargs, result)`` returns extra counts for the
        span.
        """
        target = sys.modules[owner] if isinstance(owner, str) else owner
        orig = getattr(target, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                tracer.close(sid, failed=1)
                raise
            tracer.close(sid, **(count(args, kwargs, result) if count else {}))
            return result

        setattr(target, attr, wrapper)
        self._originals.append((target, attr, orig))

    def restore(self) -> None:
        for target, attr, orig in reversed(self._originals):
            setattr(target, attr, orig)

    def still_patched(self) -> list[str]:
        """Names every ``patch`` touched that do not hold their original."""
        return sorted(
            {
                f"{getattr(target, '__name__', target)}.{attr}"
                for target, attr, orig in self._originals
                if getattr(target, attr) is not orig
            }
        )

    # -- aggregation -------------------------------------------------------

    def descendants(self, root: int) -> list[Span]:
        """Spans in the subtree under ``root`` (excluding it)."""
        inside = {root}
        out = []
        for sid in range(root + 1, len(self.spans)):
            s = self.spans[sid]
            if s.parent in inside:
                inside.add(sid)
                out.append(s)
        return out

    def totals(self, spans) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and summed counts."""
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for s in spans:
            a = agg[s.name]
            a["calls"] += 1
            a["self_s"] += s.self_s
            a["total_s"] += s.dur
            for k, v in s.counts.items():
                a[k] += v
        return agg

