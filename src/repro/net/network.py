"""The network harness: transport, bootstrap, churn, and measurement.

:class:`Network` wires :class:`~repro.net.node.FullNode` instances to the
discrete-event :class:`~repro.net.simulator.Simulator` through a latency
model, and provides the census the partition experiments read: how many
nodes currently belong to each (handshake-compatible) network, and how
well-connected each side's mesh is.

The census is the reproduction's analogue of the authors' node crawls:
they counted reachable ETC nodes before/after the fork and saw ~90%
disappear; we count nodes whose fork-block hash matches each branch.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..chain.types import Hash32
from .latency import GeographicLatency, LatencyModel, LognormalLatency
from .messages import Message, NewBlock
from .node import FullNode
from .simulator import Simulator, _heappush, _INF

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Observability

__all__ = ["Network", "NetworkCensus"]

_log = math.log
_exp = math.exp
#: CPython's ``random.NV_MAGICCONST`` — the Kinderman-Monahan ratio
#: constant used by ``Random.normalvariate``.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)


def _inline_lognorm_matches() -> bool:
    """Probe: does the inlined lognormal sampler reproduce CPython's?

    The delivery-wave kernels inline ``Random.lognormvariate`` —
    ``exp(mu + z*sigma)`` with ``z`` from the Kinderman-Monahan
    accept/reject loop — to skip two call frames per message.  The RNG
    contract is *byte-identical trajectories*: every draw must equal the
    library's and consume the same number of ``random()`` calls.  This
    probe drives both samplers from identically-seeded generators and
    compares values *and* generator states; on any mismatch (a
    hypothetical future CPython changing the algorithm, or an exotic
    Random subclass semantics change) the kernels fall back to calling
    the library sampler — slower, still trajectory-exact.
    """
    probe = random.Random(0xC0FFEE)
    ref = random.Random(0xC0FFEE)
    probe_random = probe.random
    for mu, sigma in ((0.0, 0.25), (math.log(0.12), 0.6)):
        for _ in range(8):
            while True:
                u1 = probe_random()
                u2 = 1.0 - probe_random()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -_log(u2):
                    break
            if _exp(mu + z * sigma) != ref.lognormvariate(mu, sigma):
                return False
            if probe.getstate() != ref.getstate():
                return False
    return True


#: Computed once at import; guards every inline-sampler fast path.
_INLINE_LOGNORM_OK = _inline_lognorm_matches()


class NetworkCensus:
    """A point-in-time snapshot of who is on which side."""

    def __init__(
        self,
        time: float,
        members: Dict[str, List[str]],
        peer_counts: Dict[str, float],
    ) -> None:
        self.time = time
        #: network name -> node names.
        self.members = members
        #: network name -> mean peer count among its members.
        self.peer_counts = peer_counts

    def count(self, network_name: str) -> int:
        return len(self.members.get(network_name, []))

    def fraction(self, network_name: str) -> float:
        total = sum(len(nodes) for nodes in self.members.values())
        if total == 0:
            return 0.0
        return self.count(network_name) / total


class Network:
    """Transport + membership for one simulated P2P universe."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        loss_rate: float = 0.0,
        obs: Optional["Observability"] = None,
    ) -> None:
        if not 0 <= loss_rate < 1:
            raise ValueError("loss rate must be in [0, 1)")
        self.sim = sim
        # Observability defaults to the simulator's bundle so scenarios
        # only have to thread `obs` through one constructor.
        if obs is None:
            obs = getattr(sim, "obs", None)
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None
        if obs is not None and obs.metrics is not None:
            metrics = obs.metrics
            self._ctr_sent = metrics.counter("net.messages.sent")
            self._ctr_lost = metrics.counter("net.messages.lost")
            self._ctr_undeliverable = metrics.counter(
                "net.messages.undeliverable"
            )
            self._ctr_blocked = metrics.counter("net.messages.blocked")
            self._hist_delay = metrics.histogram("net.delivery_delay_s")
            # Block-lifecycle counters are owned here (one per universe)
            # and incremented by the member FullNodes.
            self._ctr_blk_produced = metrics.counter("chain.blocks.produced")
            self._ctr_blk_imported = metrics.counter("chain.blocks.imported")
            self._ctr_blk_orphaned = metrics.counter("chain.blocks.orphaned")
            self._ctr_reorgs = metrics.counter("chain.reorgs")
        else:
            self._ctr_sent = None
            self._ctr_lost = None
            self._ctr_undeliverable = None
            self._ctr_blocked = None
            self._hist_delay = None
            self._ctr_blk_produced = None
            self._ctr_blk_imported = None
            self._ctr_blk_orphaned = None
            self._ctr_reorgs = None
        self.latency = latency or GeographicLatency()
        #: Hoisted ``isinstance`` for the per-message latency dispatch.
        self._geo_latency = isinstance(self.latency, GeographicLatency)
        # Inline-sampler parameters, cached like ``_geo_latency`` (the
        # latency model is fixed at construction).  ``None`` routes the
        # kernels to the library sampler — either the model isn't the
        # exact class the inline code reproduces, or the import-time
        # probe found the inlined algorithm diverging from the library.
        lat = self.latency
        if _INLINE_LOGNORM_OK and type(lat) is LognormalLatency:
            self._ln_params: Optional[Tuple[float, float]] = (lat.mu, lat.sigma)
        else:
            self._ln_params = None
        if (
            _INLINE_LOGNORM_OK
            and type(lat) is GeographicLatency
            and not lat.strict
        ):
            # Strict models stay on the ``delay_between`` path so an
            # unknown region pair raises KeyError before any jitter draw,
            # exactly like the per-send path.
            self._geo_jitter: Optional[float] = lat.jitter_sigma
        else:
            self._geo_jitter = None
        #: True when no tracer and no metrics are attached — together
        #: with ``faults is None`` and propagation tracking off, this
        #: routes :meth:`send` through the plain fast path.
        self._plain_obs = self._tracer is None and self._ctr_sent is None
        self.sim_rng = random.Random(seed)
        self.loss_rate = loss_rate
        self.nodes: Dict[str, FullNode] = {}
        self.messages_sent = 0
        #: Drops from sampled packet loss (base ``loss_rate`` plus any
        #: fault-injected link loss).
        self.messages_lost = 0
        #: Drops because the destination is offline or unknown.
        self.messages_undeliverable = 0
        #: Drops from scheduled fault cuts (network splits, byzantine
        #: withholding) — see :mod:`repro.faults`.
        self.messages_blocked = 0
        #: Fault hook: an object with ``judge(src, src_region, dst,
        #: dst_region, message) -> (verdict, scale, extra)`` — attached
        #: by :class:`repro.faults.injector.FaultInjector`; ``None``
        #: keeps the transport on the exact pre-fault code path.
        self.faults = None
        #: When True, record block first-transmission and delivery times
        #: for the RobustnessReport's propagation-delay metric.
        self.track_block_propagation = False
        self._block_first_sent: Dict[bytes, float] = {}
        self._block_delivery_delays: List[float] = []
        self._upgrade_log: List[Tuple[float, str]] = []

    # -- membership -----------------------------------------------------------

    def add_node(self, node: FullNode) -> FullNode:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.network = self
        return node

    def remove_node(self, name: str) -> None:
        node = self.nodes.pop(name, None)
        if node is None:
            return
        node.go_offline()
        node.network = None
        # Evict the departed name from every live peer set and routing
        # table: a census must not count links to a node that no longer
        # exists (the old behaviour silently retained them).
        for other in self.nodes.values():
            other.peers.discard(name)
            other.routing.remove(name)

    def note_upgrade(self, node_name: str) -> None:
        self._upgrade_log.append((self.sim.now, node_name))

    @property
    def upgrade_log(self) -> List[Tuple[float, str]]:
        return list(self._upgrade_log)

    # -- transport --------------------------------------------------------------

    def _trace_drop(
        self, kind: str, source: str, destination: str, message: Message
    ) -> None:
        self._tracer.emit(
            self.sim.now,
            kind,
            src=source,
            dst=destination,
            type=type(message).__name__,
        )

    def _traced_receive(self, target: FullNode, message: Message) -> None:
        """Delivery trampoline used only when a tracer is attached.

        Scheduled in place of ``target.receive`` so ``msg.deliver`` is
        emitted at the *delivery* timestamp; the simulator trajectory is
        identical either way (same delay, same RNG draws).
        """
        self._tracer.emit(
            self.sim.now,
            "msg.deliver",
            dst=target.name,
            type=type(message).__name__,
        )
        target.receive(message)

    def send(self, source: str, destination: str, message: Message) -> None:
        """Deliver ``message`` after a sampled latency (maybe drop it)."""
        if (
            self._plain_obs
            and self.faults is None
            and not self.loss_rate
            and not self.track_block_propagation
        ):
            # Plain fast path: no faults, tracing, metrics, loss, or
            # propagation bookkeeping installed.  Same lookups, same
            # single latency draw on ``sim_rng`` (the inline sampler is
            # probe-verified to consume draws exactly like the library
            # one), same (time, seq) enqueue — trajectory-identical to
            # :meth:`_send_ladder`, minus a dozen dead branch tests and
            # up to three call frames per message.
            nodes = self.nodes
            target = nodes.get(destination)
            if target is None or not target.online:
                self.messages_undeliverable += 1
                return
            self.messages_sent += 1
            rng = self.sim_rng
            ln = self._ln_params
            if ln is not None:
                random_ = rng.random
                while True:
                    u1 = random_()
                    u2 = 1.0 - random_()
                    z = _NV_MAGICCONST * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -_log(u2):
                        break
                delay = _exp(ln[0] + z * ln[1])
            else:
                source_node = nodes.get(source)
                if self._geo_latency and source_node:
                    delay = self.latency.delay_between(
                        source_node.region, target.region, rng
                    )
                else:
                    delay = self.latency.sample(rng)
            sim = self.sim
            if type(sim) is Simulator and sim.obs is None and 0.0 <= delay < _INF:
                # A handle-free delivery entry (nothing cancels a
                # delivery).  Only for the exact base class with obs
                # off — subclasses own their insert discipline, and
                # observed runs trace through handles.
                _heappush(
                    sim._queue,
                    (sim.now + delay, next(sim._sequence), target, message),
                )
            else:
                sim.schedule(delay, target.receive, message)
            return
        self._send_ladder(source, destination, message)

    def _send_ladder(
        self, source: str, destination: str, message: Message
    ) -> None:
        """The full :meth:`send` body: the seed-state fault / loss /
        trace / metrics branch ladder, for every send the plain fast
        path does not cover."""
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

    # -- delivery-wave kernels ---------------------------------------------------

    def send_wave(
        self, source: str, destinations: Iterable[str], message: Message
    ) -> None:
        """Deliver one ``message`` to many recipients in one kernel call.

        Semantically identical to ``for d in destinations: send(source,
        d, message)`` — same per-recipient drop ladder, same counters,
        and the same RNG draws in the same order (loss draw, fault
        judgement, latency draw, per recipient, in iteration order) —
        but with every invariant lookup hoisted out of the loop: the
        node map, the RNG's ``random`` method, the latency parameters,
        the fault judge, the ``isinstance(message, NewBlock)`` test, and
        the counter flushes (accumulated locally, written back once per
        wave).  Gossip fan-outs (block relay, announcements, tx relay)
        are the hot waves; at 40-node partition rates this is most of
        the transport's per-message overhead.

        With any tracer/metrics attached it literally *is* the send
        loop, so observed runs keep the seed-state behaviour to the
        byte.
        """
        if not destinations:
            return
        if not self._plain_obs:
            for destination in destinations:
                self.send(source, destination, message)
            return
        if (
            self.faults is None
            and not self.loss_rate
            and not self.track_block_propagation
        ):
            self._send_wave_plain(source, destinations, message)
        else:
            self._send_wave_general(source, destinations, message)

    def _send_wave_plain(
        self, source: str, destinations: Iterable[str], message: Message
    ) -> None:
        """Wave kernel for the no-loss / no-faults / no-tracking case."""
        nodes = self.nodes
        sim = self.sim
        rng = self.sim_rng
        random_ = rng.random
        latency = self.latency
        ln = self._ln_params
        geo_jitter = self._geo_jitter
        source_node = nodes.get(source)
        geo = self._geo_latency and source_node is not None
        src_region = source_node.region if geo else ""
        base_map = latency.base if geo else None
        geo_default = latency.default_delay if geo else 0.12
        sample = latency.sample
        inline_sched = type(sim) is Simulator and sim.obs is None
        if inline_sched:
            queue = sim._queue
            next_seq = sim._sequence.__next__
            now = sim.now
        sent = 0
        undeliverable = 0
        try:
            for destination in destinations:
                target = nodes.get(destination)
                if target is None or not target.online:
                    undeliverable += 1
                    continue
                sent += 1
                if ln is not None:
                    while True:
                        u1 = random_()
                        u2 = 1.0 - random_()
                        z = _NV_MAGICCONST * (u1 - 0.5) / u2
                        if z * z / 4.0 <= -_log(u2):
                            break
                    delay = _exp(ln[0] + z * ln[1])
                elif geo:
                    if geo_jitter is not None:
                        # delay_between == base * lognormvariate(0, jitter);
                        # exp(0.0 + z*jitter) is bit-equal to the library's
                        # exp(mu + z*sigma) with mu = 0.0.
                        while True:
                            u1 = random_()
                            u2 = 1.0 - random_()
                            z = _NV_MAGICCONST * (u1 - 0.5) / u2
                            if z * z / 4.0 <= -_log(u2):
                                break
                        delay = base_map.get(
                            (src_region, target.region), geo_default
                        ) * _exp(z * geo_jitter)
                    else:
                        delay = latency.delay_between(
                            src_region, target.region, rng
                        )
                else:
                    delay = sample(rng)
                if inline_sched and 0.0 <= delay < _INF:
                    _heappush(
                        queue, (now + delay, next_seq(), target, message)
                    )
                else:
                    # Degenerate delay or a non-base-class engine:
                    # schedule() validates and raises exactly like the
                    # per-send path would.
                    sim.schedule(delay, target.receive, message)
        finally:
            # Counter writes batched per wave; the finally keeps the
            # tallies exact even if a sampler overflows mid-wave.
            if sent:
                self.messages_sent += sent
            if undeliverable:
                self.messages_undeliverable += undeliverable

    def _send_wave_general(
        self, source: str, destinations: Iterable[str], message: Message
    ) -> None:
        """Wave kernel for the loss / faults / propagation-tracking case.

        The chaos scenarios live here: ``faults`` stays attached for the
        whole run and block-propagation tracking is on, so the plain
        kernel never fires.  The ladder below is :meth:`_send_ladder`
        with the per-message invariants hoisted — the fault judge, loss
        rate, ``NewBlock`` test, and the propagation book-keeping dict —
        drawing from ``sim_rng`` and the fault injector's RNG in exactly
        the per-send order.
        """
        nodes = self.nodes
        sim = self.sim
        rng = self.sim_rng
        random_ = rng.random
        loss_rate = self.loss_rate
        faults = self.faults
        judge = faults.judge if faults is not None else None
        latency = self.latency
        ln = self._ln_params
        sample = latency.sample
        source_node = nodes.get(source)
        src_region = source_node.region if source_node is not None else ""
        geo = self._geo_latency and source_node is not None
        schedule = sim.schedule
        now = sim.now
        track = self.track_block_propagation and isinstance(message, NewBlock)
        if track:
            key = bytes(message.block.block_hash)
            first_sent = self._block_first_sent
            delivery_delays = self._block_delivery_delays
        inline_sched = type(sim) is Simulator and sim.obs is None
        if inline_sched:
            queue = sim._queue
            next_seq = sim._sequence.__next__
        sent = 0
        lost = 0
        undeliverable = 0
        blocked = 0
        try:
            for destination in destinations:
                target = nodes.get(destination)
                if target is None or not target.online:
                    undeliverable += 1
                    continue
                if loss_rate and random_() < loss_rate:
                    lost += 1
                    continue
                scale, extra = 1.0, 0.0
                if judge is not None:
                    verdict, scale, extra = judge(
                        source, src_region, destination, target.region, message
                    )
                    if verdict == "blocked":
                        blocked += 1
                        continue
                    if verdict == "lost":
                        lost += 1
                        continue
                sent += 1
                if ln is not None:
                    while True:
                        u1 = random_()
                        u2 = 1.0 - random_()
                        z = _NV_MAGICCONST * (u1 - 0.5) / u2
                        if z * z / 4.0 <= -_log(u2):
                            break
                    delay = _exp(ln[0] + z * ln[1])
                elif geo:
                    delay = latency.delay_between(
                        src_region, target.region, rng
                    )
                else:
                    delay = sample(rng)
                delay = delay * scale + extra
                if track:
                    first = first_sent.setdefault(key, now)
                    delivery_delays.append(now + delay - first)
                if inline_sched and 0.0 <= delay < _INF:
                    _heappush(
                        queue, (now + delay, next_seq(), target, message)
                    )
                else:
                    # Degenerate delay or a non-base-class engine:
                    # schedule() validates and raises exactly like the
                    # per-send path would.
                    schedule(delay, target.receive, message)
        finally:
            if sent:
                self.messages_sent += sent
            if lost:
                self.messages_lost += lost
            if undeliverable:
                self.messages_undeliverable += undeliverable
            if blocked:
                self.messages_blocked += blocked

    # -- bootstrap ---------------------------------------------------------------

    def bootstrap_mesh(self, target_degree: int = 8) -> None:
        """Seed routing tables and dial an initial random mesh.

        Every node learns a random subset of the population (as if from
        bootnodes + discovery walks) and dials up to ``target_degree``
        peers.  Handshakes then run through the simulator.
        """
        names = list(self.nodes)
        for node in self.nodes.values():
            sample_size = min(len(names) - 1, max(target_degree * 3, 16))
            for peer_name in self.sim_rng.sample(names, min(len(names), sample_size + 1)):
                if peer_name != node.name:
                    node.routing.observe(peer_name)
        for node in self.nodes.values():
            candidates = node.routing.random_peers(target_degree, node.rng)
            for peer_name in candidates:
                node.dial(peer_name)

    def bootstrap_from_topology(
        self,
        topology,
        extra_routing: int = 16,
        apply_regions: bool = True,
    ) -> None:
        """Dial an explicit edge list instead of a random mesh.

        ``topology`` is a :class:`repro.net.topology.BuiltTopology`: its
        edges are dialed once each (from the lexicographically smaller
        endpoint; the handshake makes the link mutual), and its region
        assignment — if any — overrides each node's ``region`` so
        geo-clustered graphs line up with :class:`GeographicLatency`.

        Routing tables are seeded with each node's topology neighbors
        plus ``extra_routing`` random *other* nodes, sampled from the
        population **excluding the node itself** — unlike
        :meth:`bootstrap_mesh`, which samples ``sample_size + 1`` names
        including the node and so hands nodes that don't draw themselves
        one extra candidate.  Here every node observes exactly its
        neighbors plus ``extra_routing`` extras (fewer only when the
        population is too small), which keeps later redial-driven
        discovery comparable across topology families.

        Nodes named by the topology must already be registered; network
        nodes *not* named by the topology (observers, monitors) are left
        untouched.
        """
        names = list(topology.names)
        missing = [name for name in names if name not in self.nodes]
        if missing:
            raise ValueError(
                f"topology names absent from network: {missing[:5]!r}"
            )
        regions = topology.regions if apply_regions else None
        if regions:
            for name in names:
                self.nodes[name].region = regions[name]
        neighbors = topology.neighbors()
        for name in names:
            node = self.nodes[name]
            for peer_name in neighbors.get(name, ()):
                node.routing.observe(peer_name)
            others = [other for other in names if other != name]
            for peer_name in self.sim_rng.sample(
                others, min(len(others), extra_routing)
            ):
                node.routing.observe(peer_name)
        for a, b in topology.edges:
            self.nodes[a].dial(b)

    def schedule_redial_loop(self, interval: float = 30.0) -> None:
        """Keep under-connected nodes dialing — models discovery churn.

        This loop is why ETC's node count *recovers* over the two weeks
        after the fork in the scenario: once like-minded peers exist,
        discovery (which is fork-blind) eventually finds them.
        """

        def redial() -> None:
            for node in self.nodes.values():
                if not node.online:
                    continue
                deficit = node.max_peers // 2 - len(node.peers)
                if deficit > 0:
                    for peer_name in node.routing.random_peers(
                        deficit, node.rng
                    ):
                        node.dial(peer_name)
            self.sim.schedule(interval, redial)

        self.sim.schedule(interval, redial)

    # -- resilience loops -------------------------------------------------------

    def schedule_liveness_loop(self, interval: float = 45.0) -> None:
        """Periodic peer liveness: each node pings its peers and evicts
        the unresponsive (see :meth:`FullNode.ping_peers`).

        Without this, a crashed peer is retained in ``peers`` forever:
        the census over-counts mesh degree and gossip keeps wasting
        sends into a dead link.  Nodes without a
        :class:`~repro.net.node.ResiliencePolicy` ignore the tick, so
        arming the loop on a legacy population is a no-op.
        """

        def tick() -> None:
            for name in sorted(self.nodes):
                self.nodes[name].ping_peers()
            self.sim.schedule(interval, tick)

        self.sim.schedule(interval, tick)

    def schedule_gossip_heal_loop(self, interval: float = 120.0) -> None:
        """Periodic gossip repair under sustained loss.

        Each node re-announces its head hash (peers that missed the
        push pull the body) and re-relays a bounded sample of pending
        transactions — degraded-mode gossip: slower and chattier, but
        convergent while messages keep vanishing.  Policy-less nodes
        ignore the tick.
        """

        def tick() -> None:
            for name in sorted(self.nodes):
                node = self.nodes[name]
                node.announce_head()
                node.rebroadcast_transactions()
            self.sim.schedule(interval, tick)

        self.sim.schedule(interval, tick)

    # -- measurement ---------------------------------------------------------------

    def mean_block_propagation_delay(self) -> Optional[float]:
        """Mean seconds from first transmission to each full-block
        delivery, or None when tracing was off / nothing propagated."""
        if not self._block_delivery_delays:
            return None
        return sum(self._block_delivery_delays) / len(self._block_delivery_delays)

    def census(self) -> NetworkCensus:
        """Group online nodes by their current network allegiance.

        Below the fork height all nodes share one group (the pre-fork
        network); above it, nodes group by canonical fork-block hash —
        i.e. by which chain they actually follow, not by what their
        configuration claims.
        """
        members: Dict[str, List[str]] = {}
        peer_totals: Dict[str, int] = {}
        for node in self.nodes.values():
            if not node.online:
                continue
            fork_hash = node.fork_block_hash()
            if fork_hash is None:
                group = "pre-fork"
            else:
                group = node.network_name
            members.setdefault(group, []).append(node.name)
            peer_totals[group] = peer_totals.get(group, 0) + len(node.peers)
        peer_means = {
            group: peer_totals[group] / len(names)
            for group, names in members.items()
            if names
        }
        return NetworkCensus(self.sim.now, members, peer_means)

    def census_by_fork_hash(self) -> Dict[Optional[Hash32], int]:
        """Raw partition map: fork-block hash -> node count."""
        counts: Dict[Optional[Hash32], int] = {}
        for node in self.nodes.values():
            if node.online:
                key = node.fork_block_hash()
                counts[key] = counts.get(key, 0) + 1
        return counts

    def mean_peer_count(self) -> float:
        online = [n for n in self.nodes.values() if n.online]
        if not online:
            return 0.0
        return sum(len(n.peers) for n in online) / len(online)

    def start_all_miners(self) -> None:
        for node in self.nodes.values():
            if node.mining_hashrate > 0:
                node.start_mining()
