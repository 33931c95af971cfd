"""Seed-state reference implementations, chosen by constructing them.

Honest speedup numbers need an honest baseline: the code paths the
repository shipped *before* the kernels landed, not a strawman.  Each
optimized layer's original implementation lives here, as a standalone
class or a subclass that overrides only the optimized methods with their
seed bodies.  A reference run is chosen by constructing it — nothing
here patches a class, so a reference run and a fast run can share one
process (the ``serve`` threads do):

* :class:`ReferenceForkSimulation` — the fork sim with
  :class:`ReferenceBlockProducer` (the per-block ``advance_one`` loop)
  and :func:`reference_sampler` (the original winner closures).
* :class:`ReferencePartitionScenario` — the partition scenario on
  :class:`ReferenceSimulator` (the seed event loop),
  :class:`ReferenceNetwork` (every send walks the full branch ladder;
  no wave kernels) and :class:`ReferenceNode` (the ``isinstance``
  dispatch ladder, the seed block-sync handlers, and a
  :class:`ReferenceRoutingTable` that recomputes bucket indices).

Every arm is trajectory-preserving by construction: the reference and
fast arms consume RNG draws in the same order and produce bit-identical
results, which the benchmarks assert by comparing digests.
:class:`ReferencePartitionScenario` is built on first access (the
scenario layer is not imported at CLI start).
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Tuple

from ..chain.block import Block
from ..net.kademlia import RoutingTable, bucket_index
from ..net.messages import (
    Blocks,
    GetBlocks,
    Message,
    NewBlock,
    NewBlockHashes,
    Ping,
    Pong,
)
from ..net.network import Network
from ..net.node import FullNode
from ..net.simulator import EventHandle, SimulationError
from ..net.simulator import _callback_label, _INF
from ..sim.blockprod import BlockProducer
from ..sim.engine import ForkSimulation
from ..sim.population import PoolLandscape

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Observability

__all__ = [
    "ReferenceBlockProducer",
    "ReferenceForkSimulation",
    "ReferenceNetwork",
    "ReferenceNode",
    "ReferencePartitionScenario",
    "ReferenceRoutingTable",
    "ReferenceSimulator",
    "reference_sampler",
]


# -- fork sim ---------------------------------------------------------------


class ReferenceBlockProducer(BlockProducer):
    """:class:`BlockProducer` mining through the pre-kernel per-block loop."""

    def run_until(
        self,
        end_timestamp: int,
        hashrate: float,
        miner_sampler: Callable[[random.Random], str],
        tx_sampler: Optional[
            Callable[[random.Random, float], Tuple[int, int]]
        ] = None,
        max_blocks: int = 5_000_000,
    ) -> int:
        """The seed-state ``run_until``: one :meth:`advance_one` call per
        block instead of :meth:`advance_batch`."""
        if hashrate <= 0:
            self.clock = max(self.clock, end_timestamp)
            return 0
        produced = 0
        while self.clock < end_timestamp:
            self.advance_one(hashrate, miner_sampler, tx_sampler)
            produced += 1
            if produced > max_blocks:
                raise RuntimeError(
                    f"produced more than {max_blocks} blocks before "
                    f"t={end_timestamp}; runaway parameters?"
                )
        return produced


def reference_sampler(
    landscape: PoolLandscape, day: float
) -> Callable[[random.Random], str]:
    """The pre-optimization :meth:`PoolLandscape.make_sampler`.

    Draw-for-draw identical to the fast sampler (one ``rng.random()``,
    one ``rng.randrange`` on solo wins) but with the original per-call
    costs (inner import, f-string solo labels, ``min``/``len`` clamp)
    and no ``categorical_parts`` for the batch kernel to inline.
    """
    weights = landscape.weights_on_day(day)
    labels = list(weights)
    cumulative: List[float] = []
    running = 0.0
    for label in labels:
        running += weights[label]
        cumulative.append(running)
    pooled_mass = running
    solo_count = landscape.solo_identities

    def sampler(rng: random.Random) -> str:
        point = rng.random()
        if point >= pooled_mass:
            return f"solo-{rng.randrange(solo_count):05d}"
        import bisect

        index = bisect.bisect_right(cumulative, point)
        return labels[min(index, len(labels) - 1)]

    return sampler


class ReferenceForkSimulation(ForkSimulation):
    """:class:`ForkSimulation` on the seed-state block production path."""

    producer_cls = ReferenceBlockProducer

    def _sampler(self, landscape: PoolLandscape, day: float):
        return reference_sampler(landscape, day)


# -- event loop ---------------------------------------------------------------


class ReferenceSimulator:
    """The seed-state :class:`~repro.net.simulator.Simulator`, verbatim.

    A standalone class (not a subclass) so nothing about the optimized
    engine leaks into the baseline: dict-backed instances (the hot
    paths' ``__slots__`` layout would speed the original loop's
    attribute traffic too), the original per-event enqueue (constructor
    call, separate validation branches, separate counter/tracer tests),
    and the original peek-then-pop ``run_until``.  Duck-type compatible
    with :class:`~repro.net.simulator.Simulator`.  Trajectory-identical
    to the hot paths — only the constant factors differ.  NaN/±inf
    validation is kept (it is a correctness fix, not an optimization),
    in the seed's two-branch form.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.now = start_time
        self._queue: List[Tuple[float, int, EventHandle]] = []
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
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        if delay != delay or delay == _INF:
            raise SimulationError(
                f"event delay must be finite, got {delay!r}"
            )
        seq = next(self._sequence)
        handle = EventHandle(self.now + delay, callback, args, seq)
        heapq.heappush(self._queue, (handle.time, seq, handle))
        if self._ctr_scheduled is not None:
            self._ctr_scheduled.inc()
        if self._tracer is not None:
            self._tracer.emit(
                self.now,
                "event.scheduled",
                at=handle.time,
                fn=_callback_label(callback),
                seq=seq,
            )
        return handle

    def schedule_at(
        self, time: float, callback: Callable, *args: Any
    ) -> EventHandle:
        if time != time:
            raise SimulationError(f"event time must be finite, got {time!r}")
        return self.schedule(max(0.0, time - self.now), callback, *args)

    @property
    def pending(self) -> int:
        return len(self._queue)

    def _note_cancelled(self, handle: EventHandle) -> None:
        if self._ctr_cancelled is not None:
            self._ctr_cancelled.inc()
        if self._tracer is not None:
            self._tracer.emit(self.now, "event.cancelled", seq=handle.seq)

    def _note_fired(self, handle: EventHandle) -> None:
        if self._ctr_fired is not None:
            self._ctr_fired.inc()
        if self._tracer is not None:
            self._tracer.emit(
                self.now,
                "event.fired",
                fn=_callback_label(handle.callback),
                seq=handle.seq,
            )

    def step(self) -> bool:
        while self._queue:
            time, _, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                if self.obs is not None:
                    self._note_cancelled(handle)
                continue
            self.now = time
            self.events_processed += 1
            if self.obs is not None:
                self._note_fired(handle)
            handle.callback(*handle.args)
            return True
        return False

    def run_until(
        self, end_time: float, max_events: Optional[int] = None
    ) -> int:
        processed = 0
        while self._queue:
            time, _, handle = self._queue[0]
            if time > end_time:
                break
            if handle.cancelled:
                heapq.heappop(self._queue)
                if self.obs is not None:
                    self._note_cancelled(handle)
                continue
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"exceeded {max_events} events before t={end_time}"
                )
            heapq.heappop(self._queue)
            self.now = time
            self.events_processed += 1
            if self.obs is not None:
                self._note_fired(handle)
            handle.callback(*handle.args)
            processed += 1
        self.now = max(self.now, end_time)
        return processed

    def run_all(self, max_events: int = 10_000_000) -> int:
        processed = 0
        while self._queue:
            if processed >= max_events and any(
                not handle.cancelled for _, _, handle in self._queue
            ):
                raise SimulationError(f"exceeded {max_events} events")
            if not self.step():
                break
            processed += 1
        return processed


class ReferenceRoutingTable(RoutingTable):
    """:class:`RoutingTable` with the seed-state :meth:`observe` control
    flow (modulo the digest memo it always had): the bucket index is
    recomputed from the 256-bit digests on every call."""

    def observe(self, name: str) -> bool:
        if name == self.own_name:
            return False
        index = bucket_index(self.own_id, self._digest(name))
        if name in self._buckets.get(index, ()):
            self._seen[name] = self._tick()
            return True
        return self._admit(index, name)


class ReferenceNetwork(Network):
    """:class:`Network` on the pre-optimization transport: every send
    walks the full fault/trace/metrics branch ladder, and a delivery
    wave is the per-send loop (no wave kernels, no inline sampler, no
    inline scheduling)."""

    def send(self, source: str, destination: str, message: Message) -> None:
        """The seed-state send: the full fault / loss / trace / metrics
        branch ladder, per message."""
        target = self.nodes.get(destination)
        if target is None or not target.online:
            self.messages_undeliverable += 1
            if self._ctr_undeliverable is not None:
                self._ctr_undeliverable.inc()
            if self._tracer is not None:
                self._trace_drop("msg.undeliverable", source, destination, message)
            return
        if self.loss_rate and self.sim_rng.random() < self.loss_rate:
            self.messages_lost += 1
            if self._ctr_lost is not None:
                self._ctr_lost.inc()
            if self._tracer is not None:
                self._trace_drop("msg.lost", source, destination, message)
            return
        source_node = self.nodes.get(source)
        scale, extra = 1.0, 0.0
        if self.faults is not None:
            verdict, scale, extra = self.faults.judge(
                source,
                source_node.region if source_node is not None else "",
                destination,
                target.region,
                message,
            )
            if verdict == "blocked":
                self.messages_blocked += 1
                if self._ctr_blocked is not None:
                    self._ctr_blocked.inc()
                if self._tracer is not None:
                    self._trace_drop("msg.blocked", source, destination, message)
                return
            if verdict == "lost":
                self.messages_lost += 1
                if self._ctr_lost is not None:
                    self._ctr_lost.inc()
                if self._tracer is not None:
                    self._trace_drop("msg.lost", source, destination, message)
                return
        self.messages_sent += 1
        if self._ctr_sent is not None:
            self._ctr_sent.inc()
        if self._geo_latency and source_node:
            delay = self.latency.delay_between(
                source_node.region, target.region, self.sim_rng
            )
        else:
            delay = self.latency.sample(self.sim_rng)
        delay = delay * scale + extra
        if self._hist_delay is not None:
            self._hist_delay.observe(delay)
        if self.track_block_propagation and isinstance(message, NewBlock):
            key = bytes(message.block.block_hash)
            first = self._block_first_sent.setdefault(key, self.sim.now)
            self._block_delivery_delays.append(self.sim.now + delay - first)
        if self._tracer is not None:
            self._tracer.emit(
                self.sim.now,
                "msg.send",
                src=source,
                dst=destination,
                type=type(message).__name__,
                delay=delay,
            )
            self.sim.schedule(delay, self._traced_receive, target, message)
            return
        self.sim.schedule(delay, target.receive, message)

    def send_wave(
        self, source: str, destinations: Iterable[str], message: Message
    ) -> None:
        for destination in destinations:
            self.send(source, destination, message)


class ReferenceNode(FullNode):
    """:class:`FullNode` with the seed-state dispatch and block sync.

    Delivery dispatches through the seed ``isinstance`` ladder, and
    every served or announced block pays the full
    ``_adopt_block``/``import_block`` call chain and the per-call index
    lookups the seed paid.  :meth:`receive` must be overridden along
    with the handlers: the fast ``receive`` dispatches through a table
    of :class:`FullNode`'s own functions, which would bypass them.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.routing = ReferenceRoutingTable(self.name)

    def receive(self, message: Message) -> None:
        if not self.online:
            return
        sender = message.sender_id
        if self.resilience is not None:
            if self._now() < self._banned_until.get(sender, 0.0):
                return  # banned peers get silence, not service
            self._note_alive(sender)
            if isinstance(message, Ping):
                self._send(sender, Pong(sender_id=self.name))
                return
            if isinstance(message, Pong):
                self._ping_pending.pop(sender, None)
                return
        self.routing.observe(sender)
        self._dispatch_ladder(message)

    def _on_blocks(self, message: Blocks) -> None:
        first_orphan: Optional[Block] = None
        for block in message.blocks:
            status = self._adopt_block(
                block, origin=message.sender_id, request_missing=False
            )
            if status == "orphan" and first_orphan is None:
                first_orphan = block
        if first_orphan is not None:
            self._request_ancestor(message.sender_id, first_orphan.parent_hash)

    def _on_new_block(self, message: NewBlock) -> None:
        if bytes(message.block.block_hash) in self.seen_blocks:
            return
        self._adopt_block(message.block, origin=message.sender_id)

    def _on_new_block_hashes(self, message: NewBlockHashes) -> None:
        unknown = tuple(
            h
            for h in message.hashes
            if bytes(h) not in self.seen_blocks and h not in self.chain
        )
        if unknown:
            self._send(
                message.sender_id,
                GetBlocks(sender_id=self.name, hashes=unknown),
            )

    def _on_get_blocks(self, message: GetBlocks) -> None:
        found: List[Block] = []
        for block_hash in message.hashes:
            block = self.chain.block_by_hash(block_hash)
            if block is not None:
                found.append(block)
                # Serve a short run of descendants to accelerate catch-up.
                cursor = block
                for _ in range(31):
                    nxt = self.chain.block_by_number(cursor.number + 1)
                    if nxt is None or nxt.parent_hash != cursor.block_hash:
                        break
                    found.append(nxt)
                    cursor = nxt
        if found:
            self._send(
                message.sender_id,
                Blocks(sender_id=self.name, blocks=tuple(found)),
            )


def _build_reference_partition_scenario():
    from ..scenarios.partition_event import PartitionScenario

    class ReferencePartitionScenario(PartitionScenario):
        """:class:`PartitionScenario` with every event-layer class on its
        seed-state reference."""

        simulator_cls = ReferenceSimulator
        network_cls = ReferenceNetwork
        node_cls = ReferenceNode

    ReferencePartitionScenario.__qualname__ = "ReferencePartitionScenario"
    return ReferencePartitionScenario


def __getattr__(name: str):
    # PEP 562: the partition scenario pulls in the fault and topology
    # layers, which CLI start-up does not otherwise load.
    if name == "ReferencePartitionScenario":
        value = globals()[name] = _build_reference_partition_scenario()
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
