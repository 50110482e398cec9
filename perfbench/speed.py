"""A fixed probe of how fast the machine runs Python right now.

On a shared virtual machine the speed of the same code moves by up to 1.8
times, in phases that last from seconds to minutes, and it moves for the
probe and for qrc1 alike. So the benchmark runs `probe()` every quarter of
a second, from a timer signal, also in the middle of an op, and scales the
time between two probes by `REFERENCE_S / their mean time`: a timing is
reported in seconds of a machine on which the probe takes `REFERENCE_S`.

The probe is the benchmark's own code, not qrc1's, so a change to qrc1 never
moves it. Like qrc1, it builds small immutable objects, hashes tuples and
looks them up in dicts and sets. It runs with the cyclic garbage collector
off, so that how much qrc1 keeps alive does not change its cost.
REFERENCE_S must never change: it fixes the unit of every scaled timing.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from dataclasses import dataclass

REFERENCE_S = 0.025  # the probe took 16 to 32 ms on a 2-core x86_64 VM, Python 3.11
ROUNDS = 6_000


@dataclass(frozen=True, slots=True)
class _Node:
    tag: str
    args: tuple


def _kernel(rounds: int = ROUNDS) -> int:
    memo: dict = {}
    seen: set = set()
    acc = 0
    for i in range(rounds):
        key = (i % 97, i % 13, f"k{i % 31}")
        node = _Node("and" if i & 1 else "box", key)
        memo[key] = memo.get(key, 0) + 1
        group = frozenset((i % 7, i % 11, node))
        if node not in seen:
            seen.add(node)
        acc += len(group) + hash(node) % 3
    return acc


def probe(clock=time.perf_counter) -> float:
    """Seconds the fixed kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        _kernel()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes that took `before` and `after`,
    in seconds of the reference machine."""
    return seconds * REFERENCE_S * 2 / (before + after)


class Sampler:
    """Probes the machine's speed on entry, on exit, and every `every`
    seconds of wall time in between. With `interrupt`, a SIGALRM handler
    runs the probe, also in the middle of an op; without it, the probe runs
    only from `between_ops`, once it is due. The probes' own time is left
    out of every interval `split` measures."""

    def __init__(self, every: float, interrupt: bool, clock=time.perf_counter):
        self.every = every
        self.interrupt = interrupt
        self.armed = False
        self.clock = clock
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _probe(self, *_) -> None:
        start = self.clock()
        probe(self.clock)
        self.starts.append(start)
        self.ends.append(self.clock())
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, self.every)  # one shot, so a probe never interrupts a probe

    def between_ops(self) -> None:
        if not self.interrupt and self.clock() - self.ends[-1] >= self.every:
            self._probe()

    def __enter__(self) -> Sampler:
        probe()  # warm-up: the first run in a fresh interpreter is slower
        self._probe()
        if self.interrupt:
            self._saved = signal.signal(signal.SIGALRM, self._probe)
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, self.every)
        return self

    def __exit__(self, *exc) -> None:
        if self.armed:
            self.armed = False  # first, so that a signal already on its way does not re-arm the timer
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._saved)
        self._probe()
        self.took = self.probes_s()

    def probes_s(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def split(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, scaled seconds) of [start, end] outside the probes, once
        the sampler has exited. The gap after probe k is scaled by the times
        of probe k and probe k + 1."""
        took = self.took
        seconds = scaled = 0.0
        k = max(0, bisect.bisect_right(self.ends, start) - 1)
        while k + 1 < len(self.starts) and self.ends[k] < end:
            overlap = min(end, self.starts[k + 1]) - max(start, self.ends[k])
            if overlap > 0:
                seconds += overlap
                scaled += scale(overlap, took[k], took[k + 1])
            k += 1
        return seconds, scaled
