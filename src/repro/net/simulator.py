"""A discrete-event simulation engine.

The message-level experiments (node-count collapse at the fork, gossip
propagation, transient-fork races) run on this engine: every network
message, mining event, and node decision is a scheduled callback on one
shared virtual clock.  Virtual time is in seconds; nothing here sleeps.

The engine is deliberately minimal — a monotonic clock, a binary-heap event
queue with stable FIFO ordering for simultaneous events, and cancellable
handles — because determinism is the property the experiments lean on:
a seeded scenario replays identically down to the block hashes.

The queue holds two entry shapes, both ordered by ``(time, seq)``:

* ``(time, seq, handle)`` — a :meth:`Simulator.schedule` callback with
  its cancellable :class:`EventHandle` (timers, retries, observed runs);
* ``(time, seq, node, message)`` — a message delivery, fired as
  ``node.receive(message)``.  Nothing cancels a delivery, so it needs no
  handle; the network's inline send paths push these directly.

``seq`` is unique, so heap comparisons never reach the third element
and the two shapes interleave in exactly the order one shape would.

Observability (:mod:`repro.obs`) is opt-in: construct with ``obs=`` to
record ``event.scheduled`` / ``event.fired`` / ``event.cancelled`` trace
events and ``sim.events.*`` counters.  The tracer is the only per-event
hook.  The counters are read off tallies the engine keeps anyway
(``events_processed``, ``events_cancelled`` and the queue length) and
added to the registry each time control returns from
:meth:`Simulator.run_until`, :meth:`Simulator.step` or
:meth:`Simulator.run_all`.  So :meth:`Simulator.run_until` has one
pop-first loop for every run without a tracer or an event budget and
one guarded loop for the rest, which checks the budget and emits the
trace events.  Trajectories are identical either way because nothing
here touches RNG state, and observed digests are pinned against the
seed-state :class:`repro.perf.reference.ReferenceSimulator`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Observability

__all__ = ["Simulator", "EventHandle", "SimulationError"]

_INF = float("inf")


def _callback_label(callback: Callable) -> str:
    """A stable, JSON-safe name for a scheduled callable."""
    name = getattr(callback, "__qualname__", None)
    if name is None:  # pragma: no cover - exotic callables
        name = type(callback).__name__
    return name


class SimulationError(Exception):
    pass


class EventHandle:
    """A scheduled event; ``cancel()`` prevents a pending callback.

    ``seq`` is the queue's FIFO tiebreaker and doubles as the event's
    identity in trace streams (``event.scheduled`` / ``event.fired`` /
    ``event.cancelled`` for one handle share one ``seq``).
    """

    __slots__ = ("time", "callback", "args", "cancelled", "seq")

    def __init__(
        self, time: float, callback: Callable, args: tuple, seq: int = -1
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.seq = seq

    def cancel(self) -> None:
        self.cancelled = True


_heappush = heapq.heappush
_heappop = heapq.heappop
_new_handle = EventHandle.__new__


class Simulator:
    """The virtual clock and event queue.

    Every queue reader fires both entry shapes of the module docstring.
    A delivery's ``receive`` is looked up on the node when it fires.
    """

    # ``self.now`` is written once per event and the queue/sequence are
    # read on every ``schedule``: slot storage keeps those accesses off
    # the instance dict.
    __slots__ = (
        "now",
        "_queue",
        "_sequence",
        "events_processed",
        "events_cancelled",
        "obs",
        "_tracer",
        "_counters",
        "_flushed",
        "__weakref__",
    )

    def __init__(
        self,
        start_time: float = 0.0,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.now = start_time
        #: ``(time, seq, handle)`` and ``(time, seq, node, message)``.
        self._queue: List[tuple] = []
        self._sequence = itertools.count()
        self.events_processed = 0
        #: Cancelled entries drained off the queue without firing.
        self.events_cancelled = 0
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None
        #: ``sim.events.{scheduled,fired,cancelled}``, or ``None``.
        self._counters: Optional[tuple] = None
        if obs is not None and obs.metrics is not None:
            metrics = obs.metrics
            self._counters = (
                metrics.counter("sim.events.scheduled"),
                metrics.counter("sim.events.fired"),
                metrics.counter("sim.events.cancelled"),
            )
        #: ``(events_processed, events_cancelled, pending)`` at the last
        #: counter flush.
        self._flushed = (0, 0, 0)

    def schedule(
        self, delay: float, callback: Callable, *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds.

        ``delay`` must be a finite, non-negative number.  NaN is the
        insidious case: it fails every comparison, so a NaN-timed entry
        silently corrupts the heap invariant and events start firing out
        of order — reject it loudly here instead.
        """
        # One chained comparison rejects negative, NaN (fails both
        # sides), and +inf together; the slow branch sorts out which
        # error to raise.  ``schedule`` runs once per event, so its
        # constant factor shows up directly in events/sec.
        if not 0.0 <= delay < _INF:
            if delay != delay or delay == _INF:
                raise SimulationError(
                    f"event delay must be finite, got {delay!r}"
                )
            raise SimulationError(f"cannot schedule into the past ({delay})")
        seq = next(self._sequence)
        # Inline EventHandle construction: filling the slots here skips
        # the per-event __init__ frame.
        handle = _new_handle(EventHandle)
        handle.time = time = self.now + delay
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        handle.seq = seq
        _heappush(self._queue, (time, seq, handle))
        if self._tracer is not None:
            self._tracer.emit(
                self.now,
                "event.scheduled",
                at=time,
                fn=_callback_label(callback),
                seq=seq,
            )
        return handle

    def schedule_at(
        self, time: float, callback: Callable, *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute virtual ``time``.

        Past times clamp to "now".  NaN must be rejected *before* the
        clamp: ``max(0.0, nan)`` returns ``0.0`` (NaN loses every
        comparison), which would silently turn a poisoned timestamp into
        an immediate event instead of an error.
        """
        if time != time:
            raise SimulationError(f"event time must be finite, got {time!r}")
        return self.schedule(max(0.0, time - self.now), callback, *args)

    @property
    def pending(self) -> int:
        """Events still queued (including cancelled ones not yet drained)."""
        return len(self._queue)

    def _flush_counters(self) -> None:
        """Add the ``sim.events.*`` deltas since the last flush.

        Every seq-numbered entry is exactly one of fired, drained
        cancelled or still queued, so ``scheduled = fired + cancelled +
        Δpending``.  Deltas go through ``inc`` so simulators sharing one
        registry sum.
        """
        fired = self.events_processed
        cancelled = self.events_cancelled
        pending = len(self._queue)
        last_fired, last_cancelled, last_pending = self._flushed
        self._flushed = (fired, cancelled, pending)
        scheduled_ctr, fired_ctr, cancelled_ctr = self._counters
        fired -= last_fired
        cancelled -= last_cancelled
        scheduled_ctr.inc(fired + cancelled + pending - last_pending)
        fired_ctr.inc(fired)
        cancelled_ctr.inc(cancelled)

    def _note_cancelled(self, handle: EventHandle) -> None:
        """Trace a cancelled handle as it drains off the heap."""
        self._tracer.emit(self.now, "event.cancelled", seq=handle.seq)

    def _note_fired(self, seq: int, callback: Callable) -> None:
        self._tracer.emit(
            self.now, "event.fired", fn=_callback_label(callback), seq=seq
        )

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty.

        Shares the hot ``run_until`` dispatch discipline: deliveries
        fire without a handle, cancelled entries drain with one
        attribute test, no-arg callbacks skip the empty-tuple unpack,
        and ``heappop`` is bound once at module import instead of per
        call.
        """
        queue = self._queue
        tracer = self._tracer
        try:
            while queue:
                entry = _heappop(queue)
                if len(entry) == 4:
                    self.now = entry[0]
                    self.events_processed += 1
                    node = entry[2]
                    if tracer is not None:
                        self._note_fired(entry[1], node.receive)
                    node.receive(entry[3])
                    return True
                time, seq, handle = entry
                if handle.cancelled:
                    self.events_cancelled += 1
                    if tracer is not None:
                        self._note_cancelled(handle)
                    continue
                self.now = time
                self.events_processed += 1
                if tracer is not None:
                    self._note_fired(seq, handle.callback)
                args = handle.args
                if args:
                    handle.callback(*args)
                else:
                    handle.callback()
                return True
            return False
        finally:
            if self._counters is not None:
                self._flush_counters()

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Advance the clock to ``end_time``; returns events processed.

        Events scheduled exactly at ``end_time`` run.  ``max_events`` is a
        safety valve against event storms (a real hazard when simulating
        gossip meshes); exceeding it raises so a runaway scenario fails
        loudly instead of hanging.
        """
        # Both loops keep the heap, pop, and tallies in locals;
        # deliveries (4-entries, nearly every event in a partition run)
        # fire as ``node.receive(message)`` with no handle to read;
        # cancelled handles drain with a single attribute test; an
        # event is counted before it is dispatched, and the tallies
        # flush once at exit (the ``finally`` keeps them right even if
        # a callback raises).
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        cancelled = 0
        tracer = self._tracer
        try:
            if max_events is None and tracer is None:
                # Pop-first: one heap operation per event instead of a
                # peek plus a pop; the one overshooting entry is pushed
                # back when the horizon is reached.  No-arg callbacks
                # (timers, retries) dispatch through a plain call
                # instead of unpacking an empty tuple.
                while queue:
                    entry = heappop(queue)
                    time = entry[0]
                    if time > end_time:
                        _heappush(queue, entry)
                        break
                    if len(entry) == 4:
                        self.now = time
                        processed += 1
                        entry[2].receive(entry[3])
                    else:
                        handle = entry[2]
                        if handle.cancelled:
                            cancelled += 1
                            continue
                        self.now = time
                        processed += 1
                        args = handle.args
                        if args:
                            handle.callback(*args)
                        else:
                            handle.callback()
                    # Batched same-timestamp dispatch: a run of events
                    # with exactly this timestamp (census fan-outs,
                    # schedule_at bursts, simultaneous timeouts) drains
                    # in an inner loop — no horizon re-check and no
                    # clock store per event.  Heap pops in a tie come
                    # off in ``seq`` order, so FIFO is preserved, and
                    # events a callback schedules *at* the running
                    # timestamp land behind the tie run in the heap
                    # (larger seq), exactly as the reference loop
                    # orders them.
                    while queue and queue[0][0] == time:
                        entry = heappop(queue)
                        if len(entry) == 4:
                            processed += 1
                            entry[2].receive(entry[3])
                        else:
                            handle = entry[2]
                            if handle.cancelled:
                                cancelled += 1
                                continue
                            processed += 1
                            args = handle.args
                            if args:
                                handle.callback(*args)
                            else:
                                handle.callback()
            else:
                # The guarded loop: the storm guard is checked per live
                # event, the tie run included (a tie run must not
                # overshoot the budget unnoticed), and the over-budget
                # entry stays queued.  With a tracer attached it also
                # traces each drained cancellation and each firing — a
                # cancelled entry is noted at the clock of the event
                # before it, as the reference loop notes it.
                limit = _INF if max_events is None else max_events
                while queue:
                    entry = heappop(queue)
                    time = entry[0]
                    if time > end_time:
                        _heappush(queue, entry)
                        break
                    delivery = len(entry) == 4
                    if not delivery and entry[2].cancelled:
                        cancelled += 1
                        if tracer is not None:
                            self._note_cancelled(entry[2])
                        continue
                    if processed >= limit:
                        _heappush(queue, entry)
                        raise SimulationError(
                            f"exceeded {max_events} events before "
                            f"t={end_time}"
                        )
                    self.now = time
                    processed += 1
                    if delivery:
                        node = entry[2]
                        if tracer is not None:
                            self._note_fired(entry[1], node.receive)
                        node.receive(entry[3])
                    else:
                        handle = entry[2]
                        if tracer is not None:
                            self._note_fired(entry[1], handle.callback)
                        args = handle.args
                        if args:
                            handle.callback(*args)
                        else:
                            handle.callback()
                    while queue and queue[0][0] == time:
                        entry = heappop(queue)
                        delivery = len(entry) == 4
                        if not delivery and entry[2].cancelled:
                            cancelled += 1
                            if tracer is not None:
                                self._note_cancelled(entry[2])
                            continue
                        if processed >= limit:
                            _heappush(queue, entry)
                            raise SimulationError(
                                f"exceeded {max_events} events before "
                                f"t={end_time}"
                            )
                        processed += 1
                        if delivery:
                            node = entry[2]
                            if tracer is not None:
                                self._note_fired(entry[1], node.receive)
                            node.receive(entry[3])
                        else:
                            handle = entry[2]
                            if tracer is not None:
                                self._note_fired(entry[1], handle.callback)
                            args = handle.args
                            if args:
                                handle.callback(*args)
                            else:
                                handle.callback()
        finally:
            self.events_processed += processed
            self.events_cancelled += cancelled
            if self._counters is not None:
                self._flush_counters()
        if self.now < end_time:
            self.now = end_time
        return processed

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Drain the queue completely (bounded by ``max_events``).

        The per-event cost of the budget is one integer comparison; the
        full-queue scan for a live entry (any delivery, or a handle not
        cancelled) runs at most once, when the budget is actually
        reached — the seed version re-scanned the whole queue on every
        event past the budget, which made a storm's failure path itself
        O(n²).
        """
        processed = 0
        step = self.step
        try:
            while self._queue:
                if processed >= max_events:
                    if any(
                        len(entry) == 4 or not entry[2].cancelled
                        for entry in self._queue
                    ):
                        raise SimulationError(f"exceeded {max_events} events")
                    # Only cancelled entries remain: drain them (keeping
                    # the cancellation accounting) and stop, exactly as
                    # the seed loop's final step() did.
                    step()
                    break
                if not step():
                    break
                processed += 1
        finally:
            # ``step`` flushes per event; this covers a budget raised
            # before the first step.
            if self._counters is not None:
                self._flush_counters()
        return processed
