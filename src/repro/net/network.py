"""The network harness: transport, bootstrap, churn, and measurement.

:class:`Network` wires :class:`~repro.net.node.FullNode` instances to the
discrete-event :class:`~repro.net.simulator.Simulator` through a latency
model, and provides the census the partition experiments read: how many
nodes currently belong to each (handshake-compatible) network, and how
well-connected each side's mesh is.

The census is the reproduction's analogue of the authors' node crawls:
they counted reachable ETC nodes before/after the fork and saw ~90%
disappear; we count nodes whose fork-block hash matches each branch.

Every message goes through one kernel, :meth:`Network.send_wave` (a
single send is a one-recipient wave).  Loss, faults, propagation
tracking and the ``obs`` hooks are each an inline test on a hoisted
local, and the ``net.messages.*`` counters flush once per wave.
Deliveries go straight onto the simulator's heap unless the simulator
has a tracer, whose ``event.scheduled`` events need
:meth:`Simulator.schedule`.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

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

    The delivery-wave kernel inlines ``Random.lognormvariate`` —
    ``exp(mu + z*sigma)`` with ``z`` from the Kinderman-Monahan
    accept/reject loop — to skip two call frames per message.  The RNG
    contract is *byte-identical trajectories*: every draw must equal the
    library's and consume the same number of ``random()`` calls.  This
    probe drives both samplers from identically-seeded generators and
    compares values *and* generator states; on any mismatch (a
    hypothetical future CPython changing the algorithm, or an exotic
    Random subclass semantics change) the kernel falls back to calling
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
        # kernel to the library sampler — either the model isn't the
        # exact class the inline code reproduces, or the import-time
        # probe found the inlined algorithm diverging from the library.
        lat = self.latency
        if _INLINE_LOGNORM_OK and type(lat) is LognormalLatency:
            self._ln_params: Optional[Tuple[float, float]] = (lat.mu, lat.sigma)
        else:
            self._ln_params = None
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
        """Deliver ``message`` after a sampled latency (maybe drop it).

        A one-recipient delivery wave: :meth:`send_wave` is the only
        send path.
        """
        self.send_wave(source, (destination,), message)

    def send_wave(
        self, source: str, destinations: Iterable[str], message: Message
    ) -> None:
        """Deliver one ``message`` to many recipients: the transport's
        one kernel.

        Semantically identical to the seed ladder run once per
        recipient, in iteration order: drop an undeliverable, lost or
        blocked recipient (tracing the drop), draw the latency, observe
        ``net.delivery_delay_s``, record propagation, and emit
        ``msg.send`` before scheduling the delivery — through
        :meth:`_traced_receive` when a tracer is attached.  RNG draws
        come from ``sim_rng`` and the fault injector's RNG in exactly
        the per-send order (loss draw, fault judgement, latency draw).
        Every invariant is hoisted out of the loop: the node map, the
        RNG's ``random`` method, the latency parameters, the fault
        judge, the ``isinstance(message, NewBlock)`` test, the
        propagation dict and the hooks.  The integer counters flush
        once per wave; histogram observations stay per send, since the
        float sum depends on their order.  Without a tracer on the
        simulator, deliveries are pushed straight onto its heap.
        Gossip fan-outs (block relay, announcements, tx relay) are the
        hot waves.
        """
        if not destinations:
            return
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
        now = sim.now
        track = self.track_block_propagation and isinstance(message, NewBlock)
        if track:
            key = bytes(message.block.block_hash)
            first_sent = self._block_first_sent
            delivery_delays = self._block_delivery_delays
        tracer = self._tracer
        hist_delay = self._hist_delay
        inline_sched = type(sim) is Simulator and sim._tracer is None
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
                    if tracer is not None:
                        self._trace_drop(
                            "msg.undeliverable", source, destination, message
                        )
                    continue
                if loss_rate and random_() < loss_rate:
                    lost += 1
                    if tracer is not None:
                        self._trace_drop("msg.lost", source, destination, message)
                    continue
                if judge is not None:
                    verdict, scale, extra = judge(
                        source, src_region, destination, target.region, message
                    )
                    if verdict == "blocked":
                        blocked += 1
                        if tracer is not None:
                            self._trace_drop(
                                "msg.blocked", source, destination, message
                            )
                        continue
                    if verdict == "lost":
                        lost += 1
                        if tracer is not None:
                            self._trace_drop(
                                "msg.lost", source, destination, message
                            )
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
                if judge is not None:
                    delay = delay * scale + extra
                if hist_delay is not None:
                    hist_delay.observe(delay)
                if track:
                    first = first_sent.setdefault(key, now)
                    delivery_delays.append(now + delay - first)
                if tracer is not None:
                    tracer.emit(
                        now,
                        "msg.send",
                        src=source,
                        dst=destination,
                        type=type(message).__name__,
                        delay=delay,
                    )
                    sim.schedule(delay, self._traced_receive, target, message)
                elif inline_sched and 0.0 <= delay < _INF:
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
                if self._ctr_sent is not None:
                    self._ctr_sent.inc(sent)
            if lost:
                self.messages_lost += lost
                if self._ctr_lost is not None:
                    self._ctr_lost.inc(lost)
            if undeliverable:
                self.messages_undeliverable += undeliverable
                if self._ctr_undeliverable is not None:
                    self._ctr_undeliverable.inc(undeliverable)
            if blocked:
                self.messages_blocked += blocked
                if self._ctr_blocked is not None:
                    self._ctr_blocked.inc(blocked)

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

    def mean_peer_count(self) -> float:
        online = [n for n in self.nodes.values() if n.online]
        if not online:
            return 0.0
        return sum(len(n.peers) for n in online) / len(online)

    def start_all_miners(self) -> None:
        for node in self.nodes.values():
            if node.mining_hashrate > 0:
                node.start_mining()
