"""A calendar-queue event scheduler, trajectory-identical to the heap.

:class:`BucketSimulator` replaces the binary heap of
:class:`~repro.net.simulator.Simulator` with a calendar queue: events
hash into fixed-width time buckets (``index = int(time / width)``), a
small min-heap orders only the *bucket indices*, and the earliest bucket
is drained as a sorted list with a position pointer.  At
partition-scenario event rates many events share a bucket, so the
per-event cost is an append plus an amortized O(b log b) sort at bucket
load — cheaper than maintaining heap discipline across the whole queue
on every push and pop.  In sparse tails each event lands in its own
bucket and the engine degrades gracefully to exactly one small-heap push
and pop per event, i.e. the ``heapq`` discipline it replaced.

Ordering is identical to the heap engine — global ``(time, seq)`` order
with FIFO ties — by three invariants:

1. While a bucket is draining, every other bucket on the index heap has
   a strictly larger index (so strictly later times).  Schedules into
   the draining bucket insert via :func:`bisect.insort` bounded below by
   the drain position; a new entry's time is ``>= now`` and every entry
   behind the pointer fired at (or was cancelled before) a time
   ``<= now``, so the insertion point never falls in the consumed
   prefix.
2. A callback can never schedule into an *earlier* bucket than the one
   draining, because delays are non-negative and ``now`` lies inside
   the draining bucket.  Scheduling into an earlier bucket is only
   possible *between* runs, after a horizon pause parked ``now`` before
   the loaded bucket's span — that case unloads the remainder back onto
   the calendar before filing the new entry, restoring invariant 1.
3. Within a bucket, entries sort by the same ``(time, seq)`` tuples the
   heap used, so simultaneous events keep schedule-order FIFO.

Opt in via the class switch
:attr:`~repro.net.simulator.Simulator.use_bucket_queue` (the same
pattern as :attr:`repro.net.network.Network.use_fast_path`) or
construct :class:`BucketSimulator` directly, e.g. through the
scenarios' ``simulator_factory`` seam.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .simulator import (
    EventHandle,
    SimulationError,
    Simulator,
    _callback_label,
    _heappop,
    _heappush,
    _INF,
    _new_handle,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Observability

__all__ = ["BucketSimulator"]

#: Entries are the heap engine's ``(time, seq, handle)`` tuples, so
#: bucket sorting reproduces heap order exactly.  The handle-free
#: delivery entries never reach this engine: the network pushes them
#: inline only onto an exact :class:`Simulator`.
_Entry = Tuple[float, int, EventHandle]


class BucketSimulator(Simulator):
    """Calendar-queue drop-in for :class:`~repro.net.simulator.Simulator`.

    ``bucket_width`` is in simulated seconds.  The default (0.25 s) puts
    a few dozen events per bucket at 40-node partition-scenario rates;
    the optimum is flat — anything within an order of magnitude of the
    mean event spacing times ~10 works, because per-event costs are an
    append/insort on one side and an amortized sort on the other.
    """

    __slots__ = (
        "_width",
        "_buckets",
        "_bucket_heap",
        "_cur",
        "_cur_pos",
        "_cur_index",
    )

    def __init__(
        self,
        start_time: float = 0.0,
        obs: Optional["Observability"] = None,
        bucket_width: float = 0.25,
    ) -> None:
        if not 0.0 < bucket_width < _INF:
            raise SimulationError(
                f"bucket_width must be finite and positive, got {bucket_width!r}"
            )
        if not 0.0 <= start_time < _INF:
            # Bucket indices are non-negative (int() truncates toward
            # zero, which would fold negative times into the "no bucket
            # loaded" sentinel); the scenarios all start at t=0.
            raise SimulationError(
                f"BucketSimulator start_time must be >= 0, got {start_time!r}"
            )
        super().__init__(start_time, obs)
        self._width = bucket_width
        # Future buckets: index -> unsorted entry list.  The index heap
        # holds each index exactly once (pushed when its bucket is
        # created, popped when it is loaded for draining).
        self._buckets: Dict[int, List[_Entry]] = {}
        self._bucket_heap: List[int] = []
        # The draining bucket: sorted entries with a consumption pointer.
        # ``_cur_index = -1`` marks "no bucket loaded" (real indices are
        # non-negative because event times are).
        self._cur: List[_Entry] = []
        self._cur_pos = 0
        self._cur_index = -1

    def schedule(
        self, delay: float, callback: Callable, *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds.

        Validation is identical to the heap engine's (one chained
        comparison rejecting negative, NaN, and +inf), so the
        differential tests can feed both engines the same poison.
        """
        if not 0.0 <= delay < _INF:
            if delay != delay or delay == _INF:
                raise SimulationError(
                    f"event delay must be finite, got {delay!r}"
                )
            raise SimulationError(f"cannot schedule into the past ({delay})")
        seq = next(self._sequence)
        handle = _new_handle(EventHandle)
        handle.time = time = self.now + delay
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        handle.seq = seq
        entry = (time, seq, handle)
        index = int(time / self._width)
        cur_index = self._cur_index
        if index == cur_index:
            # Into the draining bucket: keep it sorted.  Bounding the
            # search at the drain position is safe (the entry's time is
            # >= now >= every consumed entry's time) and keeps the
            # insort cost proportional to the *unconsumed* suffix.
            insort(self._cur, entry, self._cur_pos)
        else:
            if index < cur_index:
                # Only reachable between runs: a horizon pause left a
                # loaded bucket whose span lies beyond ``now``, and this
                # entry lands before it.  Put the remainder back on the
                # calendar so the index heap regains the global minimum.
                self._unload_current()
            buckets = self._buckets
            bucket = buckets.get(index)
            if bucket is None:
                buckets[index] = [entry]
                _heappush(self._bucket_heap, index)
            else:
                bucket.append(entry)
        if self.obs is not None:
            if self._ctr_scheduled is not None:
                self._ctr_scheduled.inc()
            if self._tracer is not None:
                self._tracer.emit(
                    self.now,
                    "event.scheduled",
                    at=time,
                    fn=_callback_label(callback),
                    seq=seq,
                )
        return handle

    def _unload_current(self) -> None:
        """Return the draining bucket's unconsumed suffix to the calendar."""
        rest = self._cur[self._cur_pos :]
        if rest:
            index = self._cur_index
            # The index was popped off the heap at load time and
            # schedules route equal indices into ``_cur``, so re-adding
            # cannot duplicate it.
            self._buckets[index] = rest
            _heappush(self._bucket_heap, index)
        self._cur = []
        self._cur_pos = 0
        self._cur_index = -1

    def _load_next_bucket(self) -> bool:
        """Promote the earliest future bucket to draining; False if none."""
        heap = self._bucket_heap
        if not heap:
            return False
        index = _heappop(heap)
        bucket = self._buckets.pop(index)
        # Tuples compare by (time, seq); seq is unique so the handle is
        # never compared.  Timsort on a mostly-appended list is cheap.
        bucket.sort()
        self._cur = bucket
        self._cur_pos = 0
        self._cur_index = index
        return True

    @property
    def pending(self) -> int:
        """Events still queued (including cancelled ones not yet drained)."""
        n = len(self._cur) - self._cur_pos
        for bucket in self._buckets.values():
            n += len(bucket)
        return n

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        obs = self.obs
        while True:
            cur = self._cur
            pos = self._cur_pos
            if pos >= len(cur):
                if not self._load_next_bucket():
                    return False
                continue
            self._cur_pos = pos + 1
            entry = cur[pos]
            handle = entry[2]
            if handle.cancelled:
                if obs is not None:
                    self._note_cancelled(handle)
                continue
            self.now = entry[0]
            self.events_processed += 1
            if obs is not None:
                self._note_fired(handle.seq, handle.callback)
            args = handle.args
            if args:
                handle.callback(*args)
            else:
                handle.callback()
            return True

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Advance the clock to ``end_time``; returns events processed.

        Same contract as the heap engine: events at exactly ``end_time``
        run, ``max_events`` raises without consuming the offending
        entry, and a horizon pause leaves the queue resumable.
        """
        if self.obs is not None:
            return self._run_until_observed(end_time, max_events)
        processed = 0
        try:
            cur = self._cur
            pos = self._cur_pos
            n = len(cur)
            while True:
                if pos >= n:
                    if not self._load_next_bucket():
                        self._cur_pos = pos if cur is self._cur else 0
                        break
                    cur = self._cur
                    pos = 0
                    n = len(cur)
                    continue
                entry = cur[pos]
                time = entry[0]
                if time > end_time:
                    self._cur_pos = pos
                    break
                handle = entry[2]
                if handle.cancelled:
                    pos += 1
                    continue
                if max_events is not None and processed >= max_events:
                    self._cur_pos = pos
                    raise SimulationError(
                        f"exceeded {max_events} events before t={end_time}"
                    )
                # Persist the pointer before dispatch: the callback may
                # insort into this bucket, and the lower bound must
                # exclude everything consumed so far.
                pos += 1
                self._cur_pos = pos
                self.now = time
                args = handle.args
                if args:
                    handle.callback(*args)
                else:
                    handle.callback()
                processed += 1
                # The callback may have inserted into the draining
                # bucket (changing its length) or advanced the pointer
                # via a nested run: re-read all three locals.
                cur = self._cur
                pos = self._cur_pos
                n = len(cur)
        finally:
            self.events_processed += processed
        if self.now < end_time:
            self.now = end_time
        return processed

    def _run_until_observed(
        self, end_time: float, max_events: Optional[int] = None
    ) -> int:
        """The observability-instrumented loop, bucket edition.

        Fires and accounts events in exactly the order of the heap
        engine's observed loop, so obs trace digests match across
        engines (the differential tests assert this).
        """
        processed = 0
        while True:
            cur = self._cur
            pos = self._cur_pos
            if pos >= len(cur):
                if not self._load_next_bucket():
                    break
                continue
            entry = cur[pos]
            time = entry[0]
            if time > end_time:
                break
            handle = entry[2]
            if handle.cancelled:
                self._cur_pos = pos + 1
                if self.obs is not None:
                    self._note_cancelled(handle)
                continue
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"exceeded {max_events} events before t={end_time}"
                )
            self._cur_pos = pos + 1
            self.now = time
            self.events_processed += 1
            if self.obs is not None:
                self._note_fired(handle.seq, handle.callback)
            handle.callback(*handle.args)
            processed += 1
        self.now = max(self.now, end_time)
        return processed

    def _has_live_pending(self) -> bool:
        cur = self._cur
        for i in range(self._cur_pos, len(cur)):
            if not cur[i][2].cancelled:
                return True
        for bucket in self._buckets.values():
            for entry in bucket:
                if not entry[2].cancelled:
                    return True
        return False

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Drain the queue completely (bounded by ``max_events``).

        Mirrors the heap engine: one integer comparison per event, a
        single live-event scan only when the budget is actually reached,
        and a final drain of any trailing cancelled entries (with obs
        cancellation accounting) before returning.
        """
        processed = 0
        step = self.step
        while True:
            if processed >= max_events:
                if self._has_live_pending():
                    raise SimulationError(f"exceeded {max_events} events")
                step()
                break
            if not step():
                break
            processed += 1
        return processed
