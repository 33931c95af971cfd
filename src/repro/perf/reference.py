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
* :class:`ReferenceChainDatabase` — the record-backed analysis
  database, built from a fork-sim result by :func:`reference_database`:
  every block boxed into a :class:`~repro.data.records.BlockRecord` and
  every aggregated query accumulated block by block, the oracle for the
  columnar kernels of :class:`~repro.data.columnar.ColumnarChainDatabase`.
* :class:`ReferencePartitionScenario` — the partition scenario on
  :class:`ReferenceSimulator` (the seed event loop),
  :class:`ReferenceNetwork` (every send walks the full branch ladder;
  no wave kernels) and :class:`ReferenceNode` (the ``isinstance``
  dispatch ladder, the seed block-sync handlers, and a
  :class:`ReferenceRoutingTable` that recomputes bucket indices).
* :class:`ReferenceReplayWorkload` — the replay generator that boxes
  every sighting into a :class:`~repro.data.records.TxRecord` (sender,
  recipient, value and flags included) and sorts the record list, the
  oracle for the columnar
  :meth:`~repro.scenarios.replay_attack.ReplayWorkload.generate`.

Every arm is trajectory-preserving by construction: the reference and
fast arms consume RNG draws in the same order and produce bit-identical
results, which the benchmarks assert by comparing digests.
:class:`ReferencePartitionScenario` and :class:`ReferenceReplayWorkload`
are built on first access (the scenario layer is not imported at CLI
start).
"""

from __future__ import annotations

import heapq
import itertools
import operator
import random
from collections import Counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..chain.block import Block
from ..data.records import BlockRecord, TxRecord
from ..data.windows import DAY, HOUR, window_index
from ..net.kademlia import RoutingTable, bucket_index
from ..net.messages import (
    Blocks,
    Disconnect,
    FindNode,
    GetBlocks,
    Message,
    Neighbors,
    NewBlock,
    NewBlockHashes,
    Ping,
    Pong,
    Status,
    Transactions,
)
from ..net.network import Network
from ..net.node import FullNode
from ..net.simulator import EventHandle, SimulationError
from ..net.simulator import _callback_label, _INF
from ..sim.blockprod import BlockProducer
from ..sim.clock import FORK_TIMESTAMP
from ..sim.engine import ForkSimResult, ForkSimulation
from ..sim.population import PoolLandscape

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Observability

__all__ = [
    "ReferenceBlockProducer",
    "ReferenceChainDatabase",
    "ReferenceForkSimulation",
    "ReferenceNetwork",
    "ReferenceNode",
    "ReferencePartitionScenario",
    "ReferenceReplayWorkload",
    "ReferenceRoutingTable",
    "ReferenceSimulator",
    "reference_database",
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


# -- analysis database --------------------------------------------------------

_BLOCK_KEY = operator.attrgetter("number")


class ReferenceChainDatabase:
    """The record-backed analysis database: the oracle for
    :class:`~repro.data.columnar.ColumnarChainDatabase`.

    Blocks are boxed into :class:`~repro.data.records.BlockRecord` rows
    kept sorted by number, and every aggregated query accumulates block
    by block in that stored order — epoch-aligned half-open windows,
    the start filter applied *before* bucketing — with the exact float
    semantics the columnar kernels replicate.  Build one from a fork-sim
    result with :func:`reference_database`.
    """

    def __init__(self) -> None:
        self._blocks: Dict[str, List[BlockRecord]] = {}
        #: Per-chain "timestamps are non-decreasing in stored order" flag:
        #: True/False when known, None when it must be recomputed (after a
        #: number-order re-sort shuffled an unknown timestamp order).
        self._ts_monotone: Dict[str, Optional[bool]] = {}

    def insert_blocks(self, records: Iterable[BlockRecord]) -> int:
        # Only the chains this batch touched are examined, and a batch
        # that arrives in number order — :func:`reference_database`
        # always streams one — skips the per-chain re-sort.
        count = 0
        needs_sort: Dict[str, bool] = {}
        blocks = self._blocks
        monotone = self._ts_monotone
        for record in records:
            chain = record.chain
            rows = blocks.get(chain)
            if rows is None:
                rows = blocks[chain] = []
                needs_sort[chain] = False
                monotone[chain] = True
            else:
                if chain not in needs_sort:
                    needs_sort[chain] = False
                last = rows[-1]
                if record.number < last.number:
                    needs_sort[chain] = True
                if monotone.get(chain) and record.timestamp < last.timestamp:
                    monotone[chain] = False
            rows.append(record)
            count += 1
        for chain, dirty in needs_sort.items():
            if dirty:
                blocks[chain].sort(key=_BLOCK_KEY)
                # The re-sort (by number) may have reordered timestamps in
                # either direction; recompute lazily on the next query.
                monotone[chain] = None
        return count

    def _timestamps_monotone(self, chain: str) -> bool:
        """Whether the chain's stored timestamps are non-decreasing."""
        flag = self._ts_monotone.get(chain)
        if flag is None:
            records = self._blocks.get(chain, [])
            flag = all(
                a.timestamp <= b.timestamp
                for a, b in zip(records, records[1:])
            )
            self._ts_monotone[chain] = flag
        return flag

    def timestamps_and_difficulties(
        self, chain: str
    ) -> Tuple[List[int], List[int]]:
        """(timestamps, difficulties) columns in chain order; raises
        ``ValueError`` when the timestamps are not non-decreasing."""
        if not self._timestamps_monotone(chain):
            raise ValueError(f"chain {chain!r} timestamps are not sorted")
        records = self._blocks.get(chain, [])
        return (
            [record.timestamp for record in records],
            [record.difficulty for record in records],
        )

    def blocks_per_hour(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, int]:
        """Figure 1 (top): hourly block production histogram."""
        counts: Dict[int, int] = {}
        for record in self._blocks.get(chain, []):
            if start_ts is not None and record.timestamp < start_ts:
                continue
            index = window_index(record.timestamp, HOUR)
            counts[index] = counts.get(index, 0) + 1
        return counts

    def daily_mean_difficulty(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, float]:
        """Day index -> mean difficulty, accumulated in stored order.

        Difficulty day-sums exceed 2**53, so the result depends on the
        IEEE addition order; both backends accumulate sequentially in
        stored order — the same order ``TimeSeries.resample_mean`` uses.
        """
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for record in self._blocks.get(chain, []):
            timestamp = record.timestamp
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, DAY)
            sums[index] = sums.get(index, 0.0) + float(record.difficulty)
            counts[index] = counts.get(index, 0) + 1
        return {index: sums[index] / counts[index] for index in sums}

    def hourly_mean_block_delta(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, float]:
        """Hour index -> mean inter-block gap (seconds).

        A delta belongs to the *current* block's hour, and the start
        filter tests the current block only (the previous one may predate
        it).
        """
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        records = self._blocks.get(chain, [])
        for previous, current in zip(records, records[1:]):
            timestamp = current.timestamp
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, HOUR)
            sums[index] = sums.get(index, 0.0) + float(
                timestamp - previous.timestamp
            )
            counts[index] = counts.get(index, 0) + 1
        return {index: sums[index] / counts[index] for index in sums}

    def block_transactions_per_day(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, int]:
        """Day index -> transactions, summed from per-block tx counts."""
        counts: Dict[int, int] = {}
        for record in self._blocks.get(chain, []):
            timestamp = record.timestamp
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, DAY)
            counts[index] = counts.get(index, 0) + record.tx_count
        return counts

    def block_contract_fraction_per_day(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, float]:
        """Day index -> contract-tx fraction from per-block counts.

        Days whose blocks carry zero transactions are skipped (a gap, not
        a zero) — the same rule as the trace-level helper.
        """
        totals: Dict[int, int] = {}
        contracts: Dict[int, int] = {}
        for record in self._blocks.get(chain, []):
            timestamp = record.timestamp
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, DAY)
            totals[index] = totals.get(index, 0) + record.tx_count
            contracts[index] = contracts.get(index, 0) + record.contract_tx_count
        return {
            index: contracts.get(index, 0) / totals[index]
            for index in totals
            if totals[index] > 0
        }

    def daily_miner_counts(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, Counter]:
        """Day index -> Counter of miner labels (Figure 5's raw input).

        Counter insertion order is each label's first appearance that day
        (in stored order) — ``most_common`` tie-breaking is stable, so the
        columnar twin must and does reproduce this order.
        """
        days: Dict[int, Counter] = {}
        for record in self._blocks.get(chain, []):
            timestamp = record.timestamp
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, DAY)
            counter = days.get(index)
            if counter is None:
                counter = days[index] = Counter()
            counter[record.miner] += 1
        return days


def reference_database(result: ForkSimResult) -> ReferenceChainDatabase:
    """Box both of a fork-sim result's traces into the record oracle.

    Streams :meth:`~repro.sim.blockprod.ChainTrace.iter_block_records`,
    so the ingest never holds a second full copy of a million-block
    trace as a list.
    """
    database = ReferenceChainDatabase()
    for trace in (result.eth_trace, result.etc_trace):
        database.insert_blocks(trace.iter_block_records())
    return database


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

    def _dispatch_ladder(self, message: Message) -> None:
        """The seed dispatch ladder: an ``isinstance`` chain in the seed's
        branch order, which ignores types it does not name."""
        if isinstance(message, Status):
            self._on_status(message)
        elif isinstance(message, Disconnect):
            self._on_disconnect(message)
        elif isinstance(message, NewBlock):
            self._on_new_block(message)
        elif isinstance(message, NewBlockHashes):
            self._on_new_block_hashes(message)
        elif isinstance(message, GetBlocks):
            self._on_get_blocks(message)
        elif isinstance(message, Blocks):
            self._on_blocks(message)
        elif isinstance(message, Transactions):
            self._on_transactions(message)
        elif isinstance(message, FindNode):
            self._on_find_node(message)
        elif isinstance(message, Neighbors):
            self._on_neighbors(message)

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


def _build_reference_replay_workload():
    from ..scenarios.replay_attack import GroundTruth, ReplayWorkload

    class ReferenceReplayWorkload(ReplayWorkload):
        """:class:`ReplayWorkload` with the seed generator: one
        :class:`~repro.data.records.TxRecord` per sighting, the record
        list sorted by timestamp.  ``generate`` returns
        ``(records, truth)``."""

        def _fresh_hash(self) -> bytes:
            self._counter += 1
            return self._counter.to_bytes(8, "big") + self.rng.randbytes(24)

        def _fresh_address(self) -> bytes:
            return self.rng.randbytes(20)

        def _record(
            self, chain: str, tx_hash: bytes, timestamp: int, protected: bool
        ) -> TxRecord:
            return TxRecord(
                chain=chain,
                tx_hash=tx_hash,
                block_number=0,  # block linkage is irrelevant to echo analysis
                timestamp=timestamp,
                sender=self._fresh_address(),
                to=self._fresh_address(),
                value=self.rng.randrange(1, 10**18),
                is_contract=self.rng.random() < 0.33,
                replay_protected=protected,
            )

        def generate(self, eth_daily_tx, etc_daily_tx):
            config = self.config
            model = config.model
            records: List[TxRecord] = []
            truth = GroundTruth(echoes_into={"ETH": 0, "ETC": 0})

            days = min(config.days, len(eth_daily_tx), len(etc_daily_tx))
            for day in range(days):
                day_start = FORK_TIMESTAMP + day * DAY
                for origin, destination, volume, scale in (
                    ("ETH", "ETC", eth_daily_tx[day], 1.0),
                    ("ETC", "ETH", etc_daily_tx[day], model.reverse_scale),
                ):
                    expected = model.expected_echoes_into(day, volume) * scale
                    echo_count = self._poisson(expected)
                    for _ in range(echo_count):
                        tx_hash = self._fresh_hash()
                        origin_ts = day_start + self.rng.randrange(DAY)
                        if self.rng.random() < model.intentional_fraction:
                            lag = self.rng.randrange(60, 900)
                            truth.same_time += 1
                        else:
                            lag = int(
                                config.lag_median_seconds
                                * self.rng.lognormvariate(0.0, config.lag_sigma)
                            )
                        records.append(
                            self._record(origin, tx_hash, origin_ts, False)
                        )
                        records.append(
                            self._record(
                                destination,
                                tx_hash,
                                origin_ts + max(lag, 1),
                                False,
                            )
                        )
                        truth.echoes_into[destination] += 1
                        if destination == "ETC":
                            day_index = (origin_ts + max(lag, 1)) // DAY
                            truth.per_day_into_etc[day_index] = (
                                truth.per_day_into_etc.get(day_index, 0) + 1
                            )

                    background = int(volume * config.background_sample)
                    for _ in range(background):
                        protected = self.rng.random() < (
                            0.0 if day < model.chain_id_day else 0.5
                        )
                        records.append(
                            self._record(
                                origin,
                                self._fresh_hash(),
                                day_start + self.rng.randrange(DAY),
                                protected,
                            )
                        )

            records.sort(key=lambda record: record.timestamp)
            return records, truth

    ReferenceReplayWorkload.__qualname__ = "ReferenceReplayWorkload"
    return ReferenceReplayWorkload


#: Lazily built reference classes, by name.
_LAZY = {
    "ReferencePartitionScenario": _build_reference_partition_scenario,
    "ReferenceReplayWorkload": _build_reference_replay_workload,
}


def __getattr__(name: str):
    # PEP 562: the scenario layer pulls in the fault and topology
    # layers, which CLI start-up does not otherwise load.
    build = _LAZY.get(name)
    if build is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = build()
    return value
