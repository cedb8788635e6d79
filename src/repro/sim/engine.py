"""Heap-based discrete-event engine.

The engine owns a :class:`~repro.sim.clock.Clock` and a priority queue of
events.  Events are ``(time, sequence, callback)`` triples; the sequence
number breaks ties so that two events scheduled for the same instant run in
scheduling order, which keeps simulations deterministic.

The heap stores plain ``(time, sequence, item)`` tuples so every sift
comparison during push/pop is a C-level tuple comparison that never
reaches the payload (sequence numbers are unique, so the third element
is never compared).  ``item`` is either an :class:`Event` — the stable
handle callers keep for cancellation — or, for :meth:`Engine.post`, the
bare callback: fire-and-forget events skip the Event allocation
entirely, which is worth it at hundreds of thousands of arrivals per
simulated second.

Callbacks take no arguments — closures capture whatever context they need.
A callback may schedule further events (including at the current time).

Cancellation is lazy (O(1)): a cancelled event stays in the heap and is
skipped when popped.  To stop long-running simulations with heavy timer
churn from accumulating dead entries, the engine counts cancelled-but-
queued events and compacts the heap whenever they outnumber the live
ones; :attr:`Engine.pending_events` is O(1) arithmetic over the engine's
internal tallies instead of a heap scan.

Telemetry: the engine always maintains its tallies (scheduled, executed,
cancelled, heap high-water, run wall time) as plain ints/floats — a
handful of machine ops per event, unmeasurable against heap push/pop.
Attaching a :class:`~repro.telemetry.registry.MetricsRegistry`
(``Engine(metrics=registry)``) registers a *collector* that publishes
those tallies into ``engine.*`` metrics at snapshot time, so the hot path
is identical whether or not telemetry is enabled.  The medium and ACK
engines pick the registry up from here, so one constructor argument
instruments a whole simulation.
"""

from __future__ import annotations

import math
import time
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.sim.clock import Clock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.telemetry.registry import MetricsRegistry

#: Heaps smaller than this are never compacted — rebuilding a dozen-entry
#: list saves nothing and the churny phases of small tests would compact
#: constantly.
_COMPACT_MIN_HEAP = 64


class Event:
    """A scheduled callback and its cancellation handle.

    The heap orders events by their ``(time, sequence)`` tuple entry;
    ``cancelled`` events stay in the heap but are skipped when popped
    (lazy deletion), which makes cancellation O(1); the owning engine is
    notified so its live-event accounting stays exact and it can compact
    when dead entries dominate.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        engine: Optional["Engine"] = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = cancelled
        self._engine = engine

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"callback={self.callback!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark this event so it is skipped when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._note_cancelled()
            self._engine = None


class EventBatch:
    """One heap entry streaming many timestamped items to one slice handler.

    Holds a sorted list of ``offsets`` (seconds after ``base``).  Item
    ``i`` fires at ``base + offsets[i] + shift`` — left-associated on
    purpose, so a batch with ``shift=duration`` produces bit-identical
    floats to the per-item expression ``(base + offset) + duration``.

    The batch occupies a single heap slot.  When it fires, the handler is
    called with the batch itself and consumes a contiguous slice of due
    items starting at ``batch.index``, returning the index of the first
    unprocessed item.  A handler must process at least one item, advance
    ``clock._now`` to each later item's fire time, and stop before the
    first later item whose fire time exceeds the run limit, lands at or
    after the heap head, or follows a stop request.  Items sharing the
    fire time of the last processed item always run, in list order.  The
    engine then re-posts the batch at :meth:`next_time` if items remain.
    A re-posted batch draws a fresh sequence number, so it loses
    exact-time ties to anything already queued — exactly as if each item
    were posted individually once the previous instant's items had run.

    The medium uses two of these per transmission (arrival starts and
    arrival ends): per-receiver propagation delays differ by nanoseconds
    while unrelated events are microseconds apart, so a transmission with
    hundreds of receivers usually costs two heap round-trips total, and
    the handler runs its slice without a Python call per item.

    Batches are fire-and-forget like :meth:`Engine.post` callbacks: no
    cancellation, and :meth:`Engine._compact` leaves them in the heap.
    """

    __slots__ = ("engine", "handler", "base", "shift", "offsets", "index")

    def __init__(self, engine, handler, base, shift, offsets) -> None:
        self.engine = engine
        self.handler = handler
        self.base = base
        self.shift = shift
        self.offsets = offsets
        self.index = 0

    def next_time(self) -> float:
        """Fire time of the next pending item."""
        return self.base + self.offsets[self.index] + self.shift

    def __call__(self) -> None:
        i = self.index = self.handler(self)
        if i >= len(self.offsets):
            return
        engine = self.engine
        heap = engine._heap
        sequence = engine._scheduled
        engine._scheduled = sequence + 1
        heappush(heap, (self.base + self.offsets[i] + self.shift, sequence, self))
        if len(heap) > engine._heap_peak:
            engine._heap_peak = len(heap)


class Engine:
    """Discrete-event simulation engine.

    Typical use::

        engine = Engine()
        engine.call_at(1.5, lambda: print("hello at t=1.5"))
        engine.run_until(10.0)
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self._heap: List[Tuple[float, int, Event]] = []
        self._scheduled = 0  # doubles as the tie-breaking sequence counter
        self._processed = 0
        self._cancelled = 0
        self._cancelled_pending = 0  # cancelled events still in the heap
        self._heap_peak = 0
        self._run_calls = 0
        self._run_wall_s = 0.0
        self._running = False
        self._stopped = False
        #: Horizon an in-flight EventBatch may drain up to inline; set by
        #: run_until() for its duration, +inf otherwise.
        self._run_limit = math.inf
        self.metrics: Optional["MetricsRegistry"] = None
        if metrics is not None:
            self.attach_metrics(metrics)

    def attach_metrics(self, metrics: "MetricsRegistry") -> None:
        """Publish this engine's tallies into ``metrics`` via a collector.

        The collector *sets* the ``engine.*`` metrics from the engine's
        internal counters whenever the registry snapshots, so attach at
        most one engine per registry.
        """
        self.metrics = metrics
        ctr_scheduled = metrics.counter(
            "engine.events.scheduled", "events pushed onto the heap"
        )
        ctr_executed = metrics.counter(
            "engine.events.executed", "callbacks actually run"
        )
        ctr_cancelled = metrics.counter(
            "engine.events.cancelled", "events cancelled before running"
        )
        ctr_run_wall = metrics.counter(
            "engine.run.wall_time_s", "host wall-clock seconds inside run loops"
        )
        ctr_run_calls = metrics.counter(
            "engine.run.calls", "run()/run_until() invocations"
        )
        gauge_heap = metrics.gauge(
            "engine.heap.depth", "event heap size (incl. cancelled entries)"
        )

        def collect() -> None:
            ctr_scheduled.value = self._scheduled
            ctr_executed.value = self._processed
            ctr_cancelled.value = self._cancelled
            ctr_run_wall.value = self._run_wall_s
            ctr_run_calls.value = self._run_calls
            gauge_heap.value = len(self._heap)
            gauge_heap.max_value = self._heap_peak

        metrics.add_collector(collect)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def events_scheduled(self) -> int:
        """Number of events ever scheduled (executed, pending, or cancelled)."""
        return self._scheduled

    @property
    def events_cancelled(self) -> int:
        """Number of events cancelled before running."""
        return self._cancelled

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued. O(1)."""
        return self._scheduled - self._processed - self._cancelled

    def call_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run at absolute time ``time``.

        Scheduling in the past raises ``ValueError``; scheduling at the
        current instant is allowed and runs after already-queued events for
        that instant.
        """
        if time < self.clock._now:
            raise ValueError(
                f"cannot schedule event at {time!r}, now is {self.clock.now!r}"
            )
        sequence = self._scheduled
        self._scheduled = sequence + 1
        event = Event(time, sequence, callback, False, self)
        heap = self._heap
        heappush(heap, (time, sequence, event))
        if len(heap) > self._heap_peak:
            self._heap_peak = len(heap)
        return event

    def call_after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        return self.call_at(self.clock._now + delay, callback)

    def post(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule a fire-and-forget callback at absolute time ``time``.

        The hot-path sibling of :meth:`call_at`: no :class:`Event` handle
        is created, so the callback cannot be cancelled.  Ordering
        semantics are identical (same sequence-number tie-breaking).  The
        medium uses this for frame arrivals, which are never cancelled.
        """
        if time < self.clock._now:
            raise ValueError(
                f"cannot schedule event at {time!r}, now is {self.clock.now!r}"
            )
        sequence = self._scheduled
        self._scheduled = sequence + 1
        heap = self._heap
        heappush(heap, (time, sequence, callback))
        if len(heap) > self._heap_peak:
            self._heap_peak = len(heap)

    def post_batch(self, batch: EventBatch) -> None:
        """Schedule an :class:`EventBatch` at its next pending time.

        Fire-and-forget like :meth:`post` — one heap entry regardless of
        how many payloads the batch carries; the batch re-posts itself
        until drained.
        """
        time = batch.next_time()
        if time < self.clock._now:
            raise ValueError(
                f"cannot schedule event at {time!r}, now is {self.clock.now!r}"
            )
        sequence = self._scheduled
        self._scheduled = sequence + 1
        heap = self._heap
        heappush(heap, (time, sequence, batch))
        if len(heap) > self._heap_peak:
            self._heap_peak = len(heap)

    def stop(self) -> None:
        """Request the current :meth:`run_until`/:meth:`run` loop to exit."""
        self._stopped = True

    def next_event_time(self) -> Optional[float]:
        """Fire time of the next live event, or ``None`` on an empty queue.

        Pops cancelled heads (keeping the lazy-deletion tallies exact) so
        the answer is always a time :meth:`run_until` would actually
        execute at.  The partitioned runner uses this to fast-forward a
        tile through epochs in which it has nothing scheduled without
        paying a ``run_until`` call per boundary.
        """
        heap = self._heap
        while heap:
            head_time, _, head = heap[0]
            if head.__class__ is Event and head.cancelled:
                heappop(heap)
                self._cancelled_pending -= 1
                continue
            return head_time
        return None

    # ------------------------------------------------------------------
    # Lazy-deletion bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """An in-heap event was cancelled; compact if dead entries dominate."""
        self._cancelled += 1
        self._cancelled_pending += 1
        if (
            len(self._heap) >= _COMPACT_MIN_HEAP
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (preserves (time, seq) order).

        In-place (slice assignment) so that run loops and slice handlers,
        which hold a reference to the heap list across callbacks, never
        observe a stale binding.
        """
        heap = self._heap
        heap[:] = [
            item for item in heap if item[2].__class__ is not Event or not item[2].cancelled
        ]
        heapify(heap)
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    # The pop bookkeeping (clearing the engine backref so a late cancel()
    # cannot skew the pending arithmetic, decrementing the in-heap
    # cancelled tally) is inlined in step() and run_until() rather than
    # factored into a helper: these loops execute once per simulated event
    # and a Python function call per event is measurable at wardrive scale.

    def step(self) -> bool:
        """Run the single next live event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        """
        heap = self._heap
        while heap:
            head_time, _, event = heappop(heap)
            if event.__class__ is Event:
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                event._engine = None
                self.clock.advance(head_time)
                event.callback()
            else:
                # A bare post() callback — never cancellable.
                self.clock.advance(head_time)
                event()
            self._processed += 1
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run events in order until the queue is exhausted or an event
        would occur after ``end_time``.

        The clock is left at ``end_time`` (or at the last event time if it
        was later than ``end_time`` already — which cannot happen given the
        scheduling guard).
        """
        if self._running:
            raise RuntimeError("engine is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        self._run_limit = end_time
        wall_start = time.perf_counter()
        clock = self.clock
        heap = self._heap  # _compact() mutates in place, so this stays valid
        pop = heappop
        try:
            while heap and not self._stopped:
                head_time, _, head = heap[0]
                if head_time > end_time:
                    break
                # Direct clock assignment instead of clock.advance(): the
                # call_at not-in-the-past guard plus heap ordering already
                # make head_time monotone, so the advance() check is
                # redundant here and this runs once per event.  Bare
                # callbacks and batches outnumber Event handles in the
                # arrival-heavy simulations, so they take the first branch.
                if head.__class__ is not Event:
                    pop(heap)
                    clock._now = head_time
                    head()
                elif head.cancelled:
                    pop(heap)
                    self._cancelled_pending -= 1
                    continue
                else:
                    pop(heap)
                    head._engine = None
                    clock._now = head_time
                    head.callback()
                self._processed += 1
            if end_time > self.clock.now:
                self.clock.advance(end_time)
        finally:
            self._running = False
            self._run_limit = math.inf
            self._run_calls += 1
            self._run_wall_s += time.perf_counter() - wall_start

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` callbacks).

        ``max_events`` is a safety valve for tests driving potentially
        self-sustaining simulations (beaconing APs never stop on their own).
        """
        if self._running:
            raise RuntimeError("engine is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        wall_start = time.perf_counter()
        ran = 0
        try:
            while not self._stopped:
                if max_events is not None and ran >= max_events:
                    break
                if not self.step():
                    break
                ran += 1
        finally:
            self._running = False
            self._run_calls += 1
            self._run_wall_s += time.perf_counter() - wall_start
