"""Host speedometer: times a fixed block of CPU work while the benchmark runs.

The benchmark runs on a few vCPUs of a shared host whose speed per CPU
second drifts by a factor of two or more from one minute to the next
(other guests), while the program does identical work and its CPU time
stays equal to its wall time. To report times that do not swing with the
host, a separate process (``Speedometer``) runs a small fixed block of work
ten times a second for the whole run and logs the CPU time each block
took. The mean block CPU time over a timed span measures how slow the host
was during that span, and ``Speedometer.normalise`` rescales the span's
wall time to a fixed nominal speed. The block uses no code of the program,
so a change to the program moves the rescaled times exactly as it moves
the raw ones.

The block is what the program spends its time on: interpreter-bound BFS
loops over Python lists with a small numpy call per node, as in the RR-set
kernels, and one whole-array sort. Its arrays are allocated once, so it
times no page faults; it reads CPU time, not wall time, so it is not
slowed by the program's own processes taking turns with it on a vCPU.

    python3 perfbench/reference.py LOG    # the sampler process itself
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# CPU seconds one block takes at the nominal speed. It only sets the scale
# of the rescaled times: a round figure below the 11-16 ms the block took
# while baseline.json was measured, on a 4-vCPU VM of a busy host.
NOMINAL_BLOCK_S = 0.010
PERIOD_S = 0.1  # one block per period
MIN_SAMPLES = 3  # blocks that rescale one span, at least


class Block:
    def __init__(self) -> None:
        rng = np.random.default_rng(20240917)
        n, deg = 20_000, 8
        self.indptr = np.arange(0, n * deg + 1, deg, dtype=np.int64)
        self.indices = rng.integers(0, n, n * deg, dtype=np.int64)
        self.probs = rng.random(n * deg) * 0.5
        self.keys = rng.integers(0, 1 << 30, 20_000, dtype=np.int64)
        self.stamp = np.zeros(n, dtype=np.int64)
        self.n = n
        self.run()  # warm-up: first-call costs are not host speed

    def run(self) -> float:
        """One block; returns the CPU seconds it took."""
        c0 = time.thread_time()
        rng = np.random.default_rng(7)
        indptr, indices, probs, stamp = self.indptr, self.indices, self.probs, self.stamp
        stamp[:] = 0
        members_total = 0
        for s, root in enumerate(rng.integers(0, self.n, 50).tolist(), start=1):
            stamp[root] = s
            frontier, members = [root], [root]
            while frontier and len(members) < 64:
                new = []
                for v in frontier:
                    lo, hi = indptr[v], indptr[v + 1]
                    hit = indices[lo:hi][rng.random(hi - lo) < probs[lo:hi]]
                    for w in hit.tolist():
                        if stamp[w] != s:
                            stamp[w] = s
                            new.append(w)
                members.extend(new)
                frontier = new
            members_total += len(members)
        order = np.argsort(self.keys, kind="stable")
        if members_total <= 0 or len(order) != len(self.keys):
            raise AssertionError("reference block computed a wrong result")
        return time.thread_time() - c0


def sample(log: Path) -> None:
    """Run a block every ``PERIOD_S``; log "end time, CPU seconds" lines."""
    block = Block()
    with open(log, "w") as f:
        while True:
            t0 = time.perf_counter()
            cpu = block.run()
            end = time.perf_counter()
            f.write(f"{end:.6f} {cpu:.9f}\n")
            f.flush()
            time.sleep(max(0.0, PERIOD_S - (end - t0)))


class Speedometer:
    """The sampler process; stop it with ``stop`` on every path out."""

    def __init__(self, log: Path) -> None:
        self.log = log
        log.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(log)],
            stdin=subprocess.DEVNULL,
        )
        # Wait for the first logged block, so that every timed span is covered.
        deadline = time.monotonic() + 60
        while not self._samples():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("host speedometer did not start")
            time.sleep(0.05)

    def _samples(self) -> list[tuple[float, float]]:
        if not self.log.exists():
            return []
        # The text after the last newline may be a line still being written.
        lines = self.log.read_text().split("\n")[:-1]
        return [tuple(map(float, line.split())) for line in lines]

    def block_s(self, t0: float | None = None, t1: float | None = None) -> float:
        """Mean block CPU seconds over [t0, t1] (``perf_counter`` times).

        A span shorter than ``MIN_SAMPLES`` periods takes the blocks that
        ended nearest to its middle.
        """
        rows = self._samples()
        if t0 is None or t1 is None:
            return statistics.mean(c for _, c in rows)
        inside = [c for t, c in rows if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            inside = [c for _, c in sorted(rows, key=lambda r: abs(r[0] - mid))]
            inside = inside[:MIN_SAMPLES]
        return statistics.mean(inside)

    def normalise(self, wall_s: float, t0: float, t1: float) -> float:
        """``wall_s``, taken over [t0, t1], rescaled to the nominal speed."""
        return wall_s * NOMINAL_BLOCK_S / self.block_s(t0, t1)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


if __name__ == "__main__":
    sample(Path(sys.argv[1]))
