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
events and ``sim.events.*`` counters.  With ``obs=None`` (the default)
the hot loop pays a single attribute test per event — trajectories are
identical either way because nothing here touches RNG state.
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
        "obs",
        "_tracer",
        "_ctr_scheduled",
        "_ctr_fired",
        "_ctr_cancelled",
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
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None
        if obs is not None and obs.metrics is not None:
            self._ctr_scheduled = obs.metrics.counter("sim.events.scheduled")
            self._ctr_fired = obs.metrics.counter("sim.events.fired")
            self._ctr_cancelled = obs.metrics.counter("sim.events.cancelled")
        else:
            self._ctr_scheduled = None
            self._ctr_fired = None
            self._ctr_cancelled = None

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

    def _note_cancelled(self, handle: EventHandle) -> None:
        """Account for a cancelled handle as it drains off the heap."""
        if self._ctr_cancelled is not None:
            self._ctr_cancelled.inc()
        if self._tracer is not None:
            self._tracer.emit(self.now, "event.cancelled", seq=handle.seq)

    def _note_fired(self, seq: int, callback: Callable) -> None:
        if self._ctr_fired is not None:
            self._ctr_fired.inc()
        if self._tracer is not None:
            self._tracer.emit(
                self.now,
                "event.fired",
                fn=_callback_label(callback),
                seq=seq,
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
        obs = self.obs
        while queue:
            entry = _heappop(queue)
            if len(entry) == 4:
                self.now = entry[0]
                self.events_processed += 1
                node = entry[2]
                if obs is not None:
                    self._note_fired(entry[1], node.receive)
                node.receive(entry[3])
                return True
            time, seq, handle = entry
            if handle.cancelled:
                if obs is not None:
                    self._note_cancelled(handle)
                continue
            self.now = time
            self.events_processed += 1
            if obs is not None:
                self._note_fired(seq, handle.callback)
            args = handle.args
            if args:
                handle.callback(*args)
            else:
                handle.callback()
            return True
        return False

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Advance the clock to ``end_time``; returns events processed.

        Events scheduled exactly at ``end_time`` run.  ``max_events`` is a
        safety valve against event storms (a real hazard when simulating
        gossip meshes); exceeding it raises so a runaway scenario fails
        loudly instead of hanging.
        """
        if self.obs is not None:
            return self._run_until_observed(end_time, max_events)
        # Obs-disabled hot loop: the heap, pop, and counters live in
        # locals; deliveries (4-entries, nearly every event in a
        # partition run) fire as ``node.receive(message)`` with no
        # handle to read; cancelled handles drain with a single
        # attribute test; ``events_processed`` flushes once at exit (the
        # ``finally`` keeps it right even if a callback raises).
        # Trajectory is identical to the observed loop — nothing here
        # touches RNG state or event order.
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        try:
            if max_events is None:
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
                        entry[2].receive(entry[3])
                    else:
                        handle = entry[2]
                        if handle.cancelled:
                            continue
                        self.now = time
                        args = handle.args
                        if args:
                            handle.callback(*args)
                        else:
                            handle.callback()
                    processed += 1
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
                            entry[2].receive(entry[3])
                        else:
                            handle = entry[2]
                            if handle.cancelled:
                                continue
                            args = handle.args
                            if args:
                                handle.callback(*args)
                            else:
                                handle.callback()
                        processed += 1
            else:
                # The storm guard is checked per live event, the tie
                # run included (a tie run must not overshoot the budget
                # unnoticed); the over-budget entry stays queued.
                while queue:
                    entry = heappop(queue)
                    time = entry[0]
                    if time > end_time:
                        _heappush(queue, entry)
                        break
                    delivery = len(entry) == 4
                    if not delivery and entry[2].cancelled:
                        continue
                    if processed >= max_events:
                        _heappush(queue, entry)
                        raise SimulationError(
                            f"exceeded {max_events} events before "
                            f"t={end_time}"
                        )
                    self.now = time
                    if delivery:
                        entry[2].receive(entry[3])
                    else:
                        handle = entry[2]
                        args = handle.args
                        if args:
                            handle.callback(*args)
                        else:
                            handle.callback()
                    processed += 1
                    while queue and queue[0][0] == time:
                        entry = heappop(queue)
                        delivery = len(entry) == 4
                        if not delivery and entry[2].cancelled:
                            continue
                        if processed >= max_events:
                            _heappush(queue, entry)
                            raise SimulationError(
                                f"exceeded {max_events} events before "
                                f"t={end_time}"
                            )
                        if delivery:
                            entry[2].receive(entry[3])
                        else:
                            handle = entry[2]
                            args = handle.args
                            if args:
                                handle.callback(*args)
                            else:
                                handle.callback()
                        processed += 1
        finally:
            self.events_processed += processed
        if self.now < end_time:
            self.now = end_time
        return processed

    def _run_until_observed(
        self, end_time: float, max_events: Optional[int] = None
    ) -> int:
        """The pre-optimization :meth:`run_until` body, used whenever
        observability is attached (and kept as the oracle the
        trajectory-equality tests compare the hot loop against)."""
        processed = 0
        while self._queue:
            entry = self._queue[0]
            time = entry[0]
            if time > end_time:
                break
            delivery = len(entry) == 4
            if not delivery and entry[2].cancelled:
                heapq.heappop(self._queue)
                if self.obs is not None:
                    self._note_cancelled(entry[2])
                continue
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"exceeded {max_events} events before t={end_time}"
                )
            heapq.heappop(self._queue)
            self.now = time
            self.events_processed += 1
            if delivery:
                node = entry[2]
                if self.obs is not None:
                    self._note_fired(entry[1], node.receive)
                node.receive(entry[3])
            else:
                handle = entry[2]
                if self.obs is not None:
                    self._note_fired(entry[1], handle.callback)
                handle.callback(*handle.args)
            processed += 1
        self.now = max(self.now, end_time)
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
        while self._queue:
            if processed >= max_events:
                if any(
                    len(entry) == 4 or not entry[2].cancelled
                    for entry in self._queue
                ):
                    raise SimulationError(f"exceeded {max_events} events")
                # Only cancelled entries remain: drain them (keeping the
                # obs cancellation accounting) and stop, exactly as the
                # seed loop's final step() did.
                step()
                break
            if not step():
                break
            processed += 1
        return processed
