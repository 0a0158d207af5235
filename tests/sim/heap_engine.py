"""The single-heap reference scheduler for the kernel differential tests.

:class:`repro.sim.engine.Engine` schedules on a calendar queue (same-tick
FIFO, timer-wheel ring, overflow heap).  This subclass replaces all three
structures with one binary heap of ``(time, seq, tag, callback, payload)``
tuples -- the simplest correct scheduler for the same ``(time, seq)``
total order -- and keeps the engine's drive loop, cancellation and
compaction.  The differential tests run the same workloads on both and
require identical fire order, answers and message counts.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.engine import _BATCH, _ONE, Engine, EventHandle

__all__ = ["KERNELS", "HeapEngine"]


class HeapEngine(Engine):
    """The reference kernel: one binary heap of plain tuples."""

    __slots__ = ()

    def post1_at(
        self, time: float, callback: Callable[[Any], None], arg: Any
    ) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < now {self.now}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, seq, _ONE, callback, arg))
        self._live += 1

    def post_batch_at(
        self, time: float, callback: Callable[[Any], None], items: list
    ) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < now {self.now}")
        n = len(items)
        if n == 0:
            return
        seq = self._seq
        self._seq = seq + n
        heappush(self._queue, (time, seq, _BATCH, callback, items))
        self._live += n

    def _requeue_batch_front(
        self, time: float, seq: int, callback: Callable[[Any], None], items: list
    ) -> None:
        heappush(self._queue, (time, seq, _BATCH, callback, items))

    def _pop_due(self, limit: float) -> Optional[tuple]:
        queue = self._queue
        while queue:
            entry = queue[0]
            tag = entry[2]
            if type(tag) is EventHandle and tag.cancelled:
                heappop(queue)
                tag.in_heap = False
                self._dead -= 1
                continue
            if entry[0] > limit:
                return None
            return heappop(queue)
        return None


#: both schedulers by name; the names are the parametrized test ids.
KERNELS = {"heap": HeapEngine, "wheel": Engine}
