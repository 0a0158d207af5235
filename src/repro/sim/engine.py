"""Deterministic discrete-event engine: one calendar-queue kernel.

Every node in the reproduction runs on top of one :class:`Engine`.  Events
are callbacks scheduled at simulated timestamps; ties are broken by a
monotonically increasing sequence number so that runs are fully
deterministic for a given seed and call order.

The kernel is a calendar-queue hybrid tuned for the message-dominated
workloads of the query plane.  Fire-and-forget events land in one of three
structures chosen at post time:

- a plain FIFO deque for events due *exactly now* (the dominant case in
  zero-latency bandwidth runs, where every delivery happens at the
  current tick): O(1) append, O(1) pop, no comparisons;
- a ring of time buckets (the timer wheel) for events inside the horizon
  (``_NUM_BUCKETS * _BUCKET_WIDTH`` seconds ahead): O(1) append into the
  bucket, one ``sort`` per bucket when the clock reaches it;
- a binary-heap overflow for far-future events, and for *every*
  cancellable :meth:`Engine.schedule_at` event (so lazy cancellation and
  heap compaction live in exactly one place).

Popping compares the heads of the three structures by ``(time, seq)``, so
the fire order is the same total order a single binary heap would give.
The test tree keeps that single-heap kernel as a reference
(``tests/sim/heap_engine.py``), and ``tests/sim/test_kernel_differential.py``
pins that both fire the same events in the same order, with the same
answers and message counts, from engine level up to whole campaigns.

Hot-path design notes (this module is the simulator's innermost loop):

* heap entries are plain tuples so ordering is decided by C-level tuple
  comparison instead of a Python ``__lt__`` per sift step (``seq`` is
  unique, so comparison never reaches the non-comparable elements);
* :meth:`Engine.post1_at` schedules a *fire-and-forget* event -- no
  :class:`EventHandle` allocation.  The network uses it for message
  deliveries (never cancelled), which is the bulk of all events in a
  query-heavy run;
* :meth:`Engine.post_batch_at` schedules N same-tick callbacks as *one*
  queue entry that consumes N sequence numbers: a k-way fan-out costs one
  scheduler operation instead of k, while ``events_processed`` still
  advances once per delivered item so burst accounting (the network's
  ``burst_seq``) is unchanged.  A mid-batch stop or budget exhaustion
  re-queues the unfired remainder under its original sequence numbers,
  so observable fire order is independent of batching;
* spent 5-slot list entries (and batch item lists) are recycled through
  bounded free-lists, cutting the allocate-and-discard churn of one list
  per event;
* :attr:`Engine.pending` is a maintained live-event counter, not an O(n)
  scan of the queues;
* cancellation stays lazy (cancelled entries are skipped at pop time),
  but when cancelled entries outnumber live ones in the heap it is
  compacted in one O(n) pass, so a workload that schedules-and-cancels
  (per-query child timeouts) cannot grow the queue without bound;
* :meth:`Engine.request_stop` lets an event callback end the current
  :meth:`Engine.run` right after it returns -- the wake-up primitive
  behind the cluster's event-driven query completion (no per-event
  predicate polling);
* one drive loop (:meth:`Engine._run_core`) serves the bounded
  (``until``) and unbounded paths alike.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heapify
from typing import Any, Callable, Optional

__all__ = ["Engine", "EventHandle"]

#: below this queue size compaction is pointless (the scan costs more than
#: the dead entries ever will).
_COMPACT_MIN_QUEUE = 64

#: free-list bounds: big enough to absorb a query wave's fan-out churn,
#: small enough that an idle engine pins only a few KB.
_ENTRY_POOL_MAX = 1024
_BATCH_POOL_MAX = 64

#: timer-wheel geometry: 2048 one-millisecond buckets (a ~2 s horizon;
#: later events overflow to the heap).  The bucket count is a power of
#: two so a slot maps to its bucket with a mask.
_BUCKET_WIDTH = 0.001
_INV_WIDTH = 1.0 / _BUCKET_WIDTH
_NUM_BUCKETS = 2048
_MASK = _NUM_BUCKETS - 1

_INF = float("inf")


class _Tag:
    """Entry-kind sentinel stored in an entry's third slot (compared by
    identity on the pop path, never by value)."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self._name


#: single-argument fire-and-forget event: fires ``callback(payload)``.
_ONE = _Tag("<one>")
#: batched same-tick events: fires ``callback(item)`` per payload item.
_BATCH = _Tag("<batch>")


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the event stays in the heap but is skipped when it
    reaches the front.  This keeps :meth:`Engine.schedule` and ``cancel`` both
    O(log n) / O(1) (amortized: the engine compacts the heap when cancelled
    entries outnumber live ones).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "engine", "in_heap")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: back-reference so ``cancel`` can keep the live-event counter
        #: exact; None for handles created outside an engine (tests).
        self.engine: Optional["Engine"] = None
        #: True while the entry is physically in the engine's heap.
        self.in_heap = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once,
        and safe to call after the event already fired."""
        if self.cancelled:
            return
        self.cancelled = True
        engine = self.engine
        if engine is not None and self.in_heap:
            engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Engine:
    """A discrete-event simulator on a calendar-queue scheduler.

    The engine owns the simulated clock, :attr:`now` (seconds).
    Components schedule work with :meth:`schedule` / :meth:`schedule_at`
    (cancellable, returns an :class:`EventHandle`), :meth:`post1_at`
    (fire-and-forget, cheaper) or :meth:`post_batch_at` (N same-tick
    events as one entry), and the driver advances time with :meth:`run` /
    :meth:`run_until_idle`.

    Three structures, compared by head ``(time, seq)`` at pop time:

    * ``_fifo`` -- events posted for *exactly now* (O(1) both ends).  The
      clock cannot pass a FIFO entry (it always compares smallest-or-tied
      against the other heads), so entries never go stale.
    * ``_ring[slot(t) & _MASK]`` -- events inside the wheel horizon.  A
      bucket is sorted once when the cursor reaches it and becomes the
      *current-slot heap* ``_cur`` (a sorted list satisfies the heap
      invariant, so later same-slot posts can ``heappush`` into it).
      Events posted behind the cursor land directly in ``_cur``.
    * ``_queue`` -- the overflow heap: far-future events and every
      cancellable :meth:`schedule_at` entry.

    Ring entries always live *ahead* of the cursor (inserts behind it go
    to ``_cur``), and a bucket is emptied wholesale when visited, so a
    physical bucket never mixes entries from different wheel wraps.
    """

    __slots__ = (
        "now",
        "_queue",
        "_seq",
        "_events_processed",
        "_live",
        "_dead",
        "_stop_requested",
        "compactions",
        "_pool",
        "_batch_pool",
        "_fifo",
        "_cur",
        "_ring",
        "_cursor",
        "_wheel_count",
        "_horizon_t",
    )

    def __init__(self) -> None:
        #: current simulated time in seconds (advanced only by the engine).
        self.now = 0.0
        #: overflow / cancellable heap of (time, seq, tag, callback,
        #: payload) tuples, where tag is _ONE (single arg), _BATCH (item
        #: list) or an EventHandle (args tuple).
        self._queue: list[tuple] = []
        self._seq = 0
        self._events_processed = 0
        #: number of non-cancelled events currently queued (all structures).
        self._live = 0
        #: number of cancelled entries still physically in the heap.
        self._dead = 0
        #: set by :meth:`request_stop`; ends the current :meth:`run` after
        #: the in-flight callback returns.
        self._stop_requested = False
        #: total heap compactions performed (observability / tests).
        self.compactions = 0
        #: free-list of spent 5-slot entry lists.
        self._pool: list[list] = []
        #: free-list of spent batch item lists (see :meth:`batch_list`).
        self._batch_pool: list[list] = []
        #: events due exactly at the current clock (list entries).
        self._fifo: deque[list] = deque()
        #: current-slot heap (list entries, heap-ordered by (time, seq)).
        self._cur: list[list] = []
        self._ring: list[list[list]] = [[] for _ in range(_NUM_BUCKETS)]
        self._cursor = 0
        #: entries currently in ring buckets (excludes _fifo/_cur/_queue).
        self._wheel_count = 0
        #: absolute time beyond which posts overflow to the heap.
        self._horizon_t = _NUM_BUCKETS * _BUCKET_WIDTH

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired (batch items count
        individually, so burst accounting is batching-independent)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire at absolute time ``time``.

        Cancellable events always live in the heap, so lazy cancellation
        and compaction have exactly one home.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < now {self.now}")
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args)
        handle.engine = self
        handle.in_heap = True
        heappush(self._queue, (time, seq, handle, callback, args))
        self._live += 1
        return handle

    def post1_at(
        self, time: float, callback: Callable[[Any], None], arg: Any
    ) -> None:
        """Schedule a *fire-and-forget* ``callback(arg)`` at absolute time
        ``time``.

        Like :meth:`schedule_at` but returns no handle and allocates none
        (nor an args tuple): the event cannot be cancelled.  Message
        deliveries -- the vast majority of all events -- use this path.
        """
        now = self.now
        if time < now:
            raise ValueError(f"cannot schedule in the past: {time} < now {now}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        if time == now:
            pool = self._pool
            if pool:
                entry = pool.pop()
                entry[0] = time
                entry[1] = seq
                entry[2] = _ONE
                entry[3] = callback
                entry[4] = arg
            else:
                entry = [time, seq, _ONE, callback, arg]
            self._fifo.append(entry)
            return
        self._wheel_insert(time, [time, seq, _ONE, callback, arg])

    def post_batch_at(
        self, time: float, callback: Callable[[Any], None], items: list
    ) -> None:
        """Schedule ``callback(item)`` for every item, all at ``time``.

        One queue entry consuming ``len(items)`` sequence numbers; each
        item fires as its own event (``events_processed`` advances per
        item) in list order, exactly as ``len(items)`` consecutive
        :meth:`post1_at` calls would.  The engine takes ownership of
        ``items`` (obtain it from :meth:`batch_list` to recycle).
        """
        now = self.now
        if time < now:
            raise ValueError(f"cannot schedule in the past: {time} < now {now}")
        n = len(items)
        if n == 0:
            return
        seq = self._seq
        self._seq = seq + n
        self._live += n
        if time == now:
            pool = self._pool
            if pool:
                entry = pool.pop()
                entry[0] = time
                entry[1] = seq
                entry[2] = _BATCH
                entry[3] = callback
                entry[4] = items
            else:
                entry = [time, seq, _BATCH, callback, items]
            self._fifo.append(entry)
            return
        self._wheel_insert(time, [time, seq, _BATCH, callback, items])

    def batch_list(self) -> list:
        """An empty list for :meth:`post_batch_at`, recycled from the
        batch free-list when available."""
        pool = self._batch_pool
        return pool.pop() if pool else []

    def request_stop(self) -> None:
        """Make the current :meth:`run` return after the in-flight event.

        The wake-up half of event-driven completion: a completion callback
        (e.g. the cluster's query-waiter registry) calls this instead of
        the driver re-checking a predicate after every event.  A no-op
        when nothing is running; the flag is cleared when :meth:`run`
        starts, so a stale request cannot end a later run early.
        """
        self._stop_requested = True

    # ------------------------------------------------------------------
    # internal bookkeeping
    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        """A live in-heap entry was just cancelled: keep counters exact and
        compact the heap once dead entries outnumber live ones *in the
        heap* (wheel structures never hold cancellable entries)."""
        self._live -= 1
        dead = self._dead + 1
        self._dead = dead
        queued = len(self._queue)
        if queued > _COMPACT_MIN_QUEUE and dead > queued - dead:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (O(n)).

        Heapify re-establishes the heap invariant over the same
        ``(time, seq)`` total order the entries were pushed with, so the
        pop order of live events -- and therefore the simulation -- is
        unchanged.  The list is compacted *in place*: compaction can be
        triggered from inside an event callback (a handler cancelling
        timeouts), while the drive loop may hold a local alias to the
        queue list -- rebinding ``self._queue`` would strand their
        alias on the stale list and lose every event pushed afterwards.
        """
        queue = self._queue
        kept = []
        for entry in queue:
            tag = entry[2]
            if type(tag) is EventHandle and tag.cancelled:
                tag.in_heap = False
            else:
                kept.append(entry)
        queue[:] = kept
        heapify(queue)
        self._dead = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # wheel internals
    # ------------------------------------------------------------------

    def _wheel_insert(self, time: float, entry: list) -> None:
        """Route a future-time entry to the current-slot heap, a ring
        bucket, or the overflow heap."""
        if time >= self._horizon_t and not self._wheel_count and not self._cur:
            # The wheel is empty: re-anchor the cursor at the clock so the
            # horizon tracks simulated time even after long idle jumps.
            cursor = int(self.now * _INV_WIDTH)
            self._cursor = cursor
            self._horizon_t = (cursor + _NUM_BUCKETS) * _BUCKET_WIDTH
        if time < self._horizon_t:
            slot = int(time * _INV_WIDTH)
            if slot <= self._cursor:
                heappush(self._cur, entry)
            else:
                self._ring[slot & _MASK].append(entry)
                self._wheel_count += 1
            return
        # Far future: the overflow heap holds tuples only (it is shared
        # with cancellable entries; mixed list/tuple keys don't compare).
        heappush(self._queue, (entry[0], entry[1], entry[2], entry[3], entry[4]))

    def _advance_wheel(self) -> None:
        """Collect the next non-empty ring bucket into the (empty)
        current-slot heap.  Only called while the ring holds entries, so
        the scan terminates within one wrap."""
        ring = self._ring
        cursor = self._cursor
        while True:
            cursor += 1
            bucket = ring[cursor & _MASK]
            if bucket:
                break
        bucket.sort()
        # Hand the bucket over as the new current-slot heap (a sorted list
        # is a valid heap) and recycle the drained old one as the bucket.
        ring[cursor & _MASK] = self._cur
        self._cur = bucket
        self._wheel_count -= len(bucket)
        self._cursor = cursor
        self._horizon_t = (cursor + _NUM_BUCKETS) * _BUCKET_WIDTH

    def _pop_due(self, limit: float) -> Optional[Any]:
        """Pop and return the next live entry with ``time <= limit``, or
        None (leaving any later entry queued)."""
        fifo = self._fifo
        cur = self._cur
        if not cur and self._wheel_count:
            self._advance_wheel()
            cur = self._cur
        queue = self._queue
        while queue:
            tag = queue[0][2]
            if type(tag) is EventHandle and tag.cancelled:
                heappop(queue)
                tag.in_heap = False
                self._dead -= 1
                continue
            break
        if fifo:
            best = fifo[0]
            src = 1
        else:
            best = None
            src = 0
        if cur:
            head = cur[0]
            if (
                best is None
                or head[0] < best[0]
                or (head[0] == best[0] and head[1] < best[1])
            ):
                best = head
                src = 2
        if queue:
            head = queue[0]
            if (
                best is None
                or head[0] < best[0]
                or (head[0] == best[0] and head[1] < best[1])
            ):
                best = head
                src = 3
        if best is None or best[0] > limit:
            return None
        if src == 1:
            return fifo.popleft()
        if src == 2:
            return heappop(cur)
        return heappop(queue)

    def _requeue_batch_front(
        self, time: float, seq: int, callback: Callable[[Any], None], items: list
    ) -> None:
        """Re-queue the unfired remainder of a batch under its original
        (time, seq) key -- by construction the globally smallest key
        outstanding.  ``time == now`` (the batch was firing), so the FIFO
        front is the right home; its seq precedes every other queued
        same-time entry because batch sequence numbers are contiguous."""
        self._fifo.appendleft([time, seq, _BATCH, callback, items])

    # ------------------------------------------------------------------
    # driving (one code path for all drive modes)
    # ------------------------------------------------------------------

    def _run_core(self, until: Optional[float], max_events: Optional[int]) -> int:
        """The single drive loop.  Fires due events in ``(time, seq)``
        order until the queues drain (or pass ``until``), the event budget
        is exhausted, or a callback requests a stop.  Returns the number
        of events fired."""
        limit = _INF if until is None else until
        # Old-contract quirk kept: a non-positive budget still fires one
        # event (the check runs after each event).
        budget = -1 if max_events is None else (max_events if max_events > 0 else 1)
        fired = 0
        pop_due = self._pop_due
        pool = self._pool
        # The same-tick FIFO (identity is stable for the engine's
        # lifetime).  When it alone holds entries, its head is the global
        # minimum -- the current-slot heap and overflow heap are empty,
        # and ring buckets hold strictly later times -- so the three-way
        # compare in _pop_due is skipped.
        fifo = self._fifo
        while True:
            if fifo and not self._cur and not self._queue:
                head = fifo[0]
                entry = fifo.popleft() if head[0] <= limit else None
            else:
                entry = pop_due(limit)
            if entry is None:
                if until is not None and until > self.now:
                    self.now = until
                return fired
            tag = entry[2]
            self.now = entry[0]
            if tag is _BATCH:
                callback = entry[3]
                items = entry[4]
                n = len(items)
                i = 0
                while i < n:
                    item = items[i]
                    i += 1
                    self._live -= 1
                    self._events_processed += 1
                    callback(item)
                    fired += 1
                    if self._stop_requested or fired == budget:
                        if i < n:
                            self._requeue_batch_front(
                                entry[0], entry[1] + i, callback, items[i:]
                            )
                        self._stop_requested = False
                        return fired
                items.clear()
                batch_pool = self._batch_pool
                if len(batch_pool) < _BATCH_POOL_MAX:
                    batch_pool.append(items)
            else:
                self._live -= 1
                self._events_processed += 1
                if tag is _ONE:
                    entry[3](entry[4])
                else:
                    # An EventHandle (dead ones were already skipped by
                    # _pop_due).
                    tag.in_heap = False
                    entry[3](*entry[4])
                fired += 1
                if self._stop_requested or fired == budget:
                    self._stop_requested = False
                    return fired
            # Recycle spent entry lists (tuples come from the overflow
            # heap and are not pooled).  Slots are NOT cleared: a pooled
            # entry may pin its last callback/payload until reuse, which
            # is bounded by the pool size and saves two stores per event.
            if type(entry) is list and len(pool) < _ENTRY_POOL_MAX:
                pool.append(entry)

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if nothing is queued."""
        return self._run_core(None, 1) > 0

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run events until the queue drains, ``until`` passes, or the budget ends.

        ``until`` is an absolute simulated time; events scheduled at exactly
        ``until`` still fire, and an idle engine's clock still advances to
        ``until``.  ``max_events`` bounds the number of events and protects
        against livelock in tests.  An event callback may call
        :meth:`request_stop` to end the run early (event-driven wake-up).
        """
        self._stop_requested = False
        self._run_core(until, max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain.  Raises if ``max_events`` is exceeded.

        A :meth:`request_stop` raised by a callback does not end the
        drain: the drive loop returns and is re-entered with what is left
        of the budget, until a pass fires nothing.
        """
        remaining = max_events + 1  # the overrun is noticed once it fired
        while True:
            fired = self._run_core(None, remaining)
            if not fired:
                return
            remaining -= fired
            if remaining <= 0:
                raise RuntimeError(
                    f"simulation did not go idle within {max_events} events"
                )

    def run_until(
        self, predicate: Callable[[], bool], max_events: int = 10_000_000
    ) -> bool:
        """Run until ``predicate()`` is true or the queue drains.

        Returns True if the predicate was satisfied.

        .. note:: **Slow path.**  The predicate is re-evaluated after every
           event, which is fine for tests and small drives but O(events x
           predicate cost) overall.  Production-style drivers
           (:meth:`repro.core.cluster.MoaraCluster.query` and friends) use
           the completion-waiter registry plus :meth:`request_stop`
           instead, which costs one callback per *completion* rather than
           one predicate scan per *event*.
        """
        if predicate():
            return True
        fired = 0
        while self.step():
            fired += 1
            if predicate():
                return True
            if fired > max_events:
                raise RuntimeError(
                    f"predicate not satisfied within {max_events} events"
                )
        return predicate()
