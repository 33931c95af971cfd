"""Differential tests: delivery-wave kernels, dispatch table, SoA stats.

The one wave kernel (:meth:`Network.send_wave`; a single ``send`` is
a one-recipient wave) must consume RNG draws in exactly the per-send
reference order, enqueue byte-identical deliveries and,
on an observed run, emit the seed ladder's trace and metrics; the
exact-type dispatch table must be observationally identical to the seed
``isinstance`` ladder; the block-sync pre-checks must reproduce
``import_block``'s verdicts; and :class:`NodeStats` must read like the
dict it replaced.  Each reference arm builds the same universe from
:class:`ReferenceNetwork` and :class:`ReferenceNode`.
"""

from dataclasses import replace

import pytest

from repro.chain.chainstore import Blockchain
from repro.chain.config import ETH_CONFIG
from repro.chain.genesis import build_genesis
from repro.net.latency import (
    ConstantLatency,
    GeographicLatency,
    LognormalLatency,
)
from repro.net.messages import GetBlocks, NewBlock, NewBlockHashes
from repro.net.network import Network
from repro.net.node import FullNode
from repro.net.simulator import Simulator
from repro.perf.bench import run_bench
from repro.perf.reference import ReferenceNetwork, ReferenceNode
from repro.perf.soa import NodeStats

CFG = replace(ETH_CONFIG, dao_fork_block=10**9, bomb_delay=10**9)


def make_genesis():
    genesis, _ = build_genesis({}, difficulty=200_000)
    return genesis


def classes(reference):
    """The (network, node) classes of one arm."""
    if reference:
        return ReferenceNetwork, ReferenceNode
    return Network, FullNode


def build_net(latency, reference, seed=7, num_nodes=12, offline=(3,)):
    network_cls, node_cls = classes(reference)
    genesis = make_genesis()
    sim = Simulator()
    net = network_cls(sim, latency=latency, seed=seed)
    regions = ("eu", "us", "asia")
    for i in range(num_nodes):
        node = node_cls(
            f"n{i}",
            Blockchain(CFG, genesis, execute_transactions=False),
            region=regions[i % len(regions)],
            rng_seed=100 + i,
        )
        net.add_node(node)
        if i in offline:
            node.online = False
    return sim, net, genesis


def queue_snapshot(sim):
    """``(time, seq, recipient)`` per queued entry, of either shape:
    a handle-free delivery ``(time, seq, node, message)`` or a scheduled
    ``(time, seq, handle)`` whose callback is a bound ``receive`` (or,
    traced, the network's ``_traced_receive`` with the recipient first
    in its arguments)."""

    def recipient(entry):
        if len(entry) == 4:
            return entry[2].name
        handle = entry[2]
        owner = handle.callback.__self__
        return owner.name if isinstance(owner, FullNode) else handle.args[0].name

    return sorted((entry[0], entry[1], recipient(entry)) for entry in sim._queue)


def transport_counters(net):
    return (
        net.messages_sent,
        net.messages_lost,
        net.messages_undeliverable,
        net.messages_blocked,
    )


LATENCIES = [
    LognormalLatency(median=0.12, sigma=0.6),
    GeographicLatency(),
    ConstantLatency(0.05),
]


class TestPlainWaveKernel:
    @pytest.mark.parametrize("latency", LATENCIES)
    def test_wave_matches_per_send_loop(self, latency):
        def run(reference):
            sim, net, _ = build_net(latency, reference)
            message = NewBlockHashes(sender_id="n0", hashes=())
            destinations = [f"n{i}" for i in range(1, 12)]
            net.send_wave("n0", destinations, message)
            return (
                queue_snapshot(sim),
                net.sim_rng.getstate(),
                transport_counters(net),
            )

        assert run(reference=False) == run(reference=True)

    @pytest.mark.parametrize("latency", LATENCIES)
    def test_single_send_matches_reference(self, latency):
        def run(reference):
            sim, net, _ = build_net(latency, reference)
            message = GetBlocks(sender_id="n0", hashes=())
            for dest in ("n1", "n2", "n3", "n4"):
                net.send("n0", dest, message)
            return (
                queue_snapshot(sim),
                net.sim_rng.getstate(),
                transport_counters(net),
            )

        assert run(reference=False) == run(reference=True)


class TestGeneralWaveKernel:
    @pytest.mark.parametrize("latency", LATENCIES[:2])
    def test_loss_and_tracking_match_per_send_loop(self, latency):
        def run(reference):
            network_cls, node_cls = classes(reference)
            genesis = make_genesis()
            sim = Simulator()
            net = network_cls(sim, latency=latency, seed=11, loss_rate=0.2)
            net.track_block_propagation = True
            for i in range(10):
                node = node_cls(
                    f"n{i}",
                    Blockchain(CFG, genesis, execute_transactions=False),
                    region=("eu", "us")[i % 2],
                    rng_seed=200 + i,
                )
                net.add_node(node)
            net.nodes["n5"].online = False
            message = NewBlock(
                sender_id="n0", block=genesis, total_difficulty=1
            )
            destinations = [f"n{i}" for i in range(1, 10)]
            net.send_wave("n0", destinations, message)
            return (
                queue_snapshot(sim),
                net.sim_rng.getstate(),
                transport_counters(net),
                dict(net._block_first_sent),
                list(net._block_delivery_delays),
            )

        assert run(reference=False) == run(reference=True)


class _StubJudge:
    """A fault hook with fixed verdicts: ``blocked`` and ``lost`` name
    recipients, every other delivery is slowed and delayed."""

    def __init__(self, blocked, lost):
        self.blocked = blocked
        self.lost = lost

    def judge(self, src, src_region, dst, dst_region, message):
        if dst in self.blocked:
            return "blocked", 1.0, 0.0
        if dst in self.lost:
            return "lost", 1.0, 0.0
        return "deliver", 1.5, 0.01


class TestObservedWaveKernel:
    @pytest.mark.parametrize("latency", LATENCIES[:2])
    def test_traced_metered_wave_matches_reference(self, latency):
        """A traced, metered wave that hits every drop branch
        (undeliverable, sampled loss, fault loss, fault block) emits the
        seed ladder's trace, counters and delay histogram."""
        from repro.obs import Observability

        def run(reference):
            network_cls, node_cls = classes(reference)
            genesis = make_genesis()
            obs = Observability.enabled()
            sim = Simulator(obs=obs)
            net = network_cls(sim, latency=latency, seed=13, loss_rate=0.25)
            net.track_block_propagation = True
            net.faults = _StubJudge(blocked={"n2", "n7"}, lost={"n4"})
            for i in range(10):
                node = node_cls(
                    f"n{i}",
                    Blockchain(CFG, genesis, execute_transactions=False),
                    region=("eu", "us")[i % 2],
                    rng_seed=300 + i,
                )
                net.add_node(node)
            net.nodes["n5"].online = False
            message = NewBlock(
                sender_id="n0", block=genesis, total_difficulty=1
            )
            destinations = [f"n{i}" for i in range(1, 10)] + ["ghost"]
            net.send_wave("n0", destinations, message)
            net.send("n0", "n8", message)
            sim.run_until(10.0)
            return (
                obs.tracer.digest(),
                obs.tracer.events_emitted,
                obs.metrics.dumps(),
                net.sim_rng.getstate(),
                transport_counters(net),
                list(net._block_delivery_delays),
            )

        fast = run(reference=False)
        counters = fast[4]
        assert all(counters), counters  # every drop branch was taken
        assert fast == run(reference=True)


class _ScriptedLatency:
    """Hands out a fixed delay sequence, a NaN among them."""

    def __init__(self, delays):
        self._delays = iter(delays)

    def sample(self, rng):
        return next(self._delays)


class TestDelayHistogramNaN:
    @pytest.mark.parametrize("traced", [False, True], ids=["metrics", "traced"])
    def test_nan_delay_mid_wave_matches_reference(self, traced):
        """A NaN delay mid-wave keeps the delays observed before it,
        raises ``ValueError`` and schedules nothing from the NaN on,
        exactly like the seed ladder."""
        from repro.obs import MetricsRegistry, Observability

        def run(reference):
            obs = (
                Observability.enabled()
                if traced
                else Observability(metrics=MetricsRegistry())
            )
            network_cls, node_cls = classes(reference)
            genesis = make_genesis()
            sim = Simulator(obs=obs)
            latency = _ScriptedLatency([0.25, 3.5, float("nan"), 0.5])
            net = network_cls(sim, latency=latency, seed=3)
            for i in range(5):
                net.add_node(
                    node_cls(
                        f"n{i}",
                        Blockchain(CFG, genesis, execute_transactions=False),
                        rng_seed=400 + i,
                    )
                )
            message = NewBlockHashes(
                sender_id="n0", hashes=(genesis.block_hash,)
            )
            with pytest.raises(ValueError):
                net.send_wave("n0", ["n1", "n2", "n3", "n4"], message)
            hist = obs.metrics.histogram("net.delivery_delay_s")
            return (
                (hist.count, hist.total, list(hist.counts)),
                queue_snapshot(sim),
                transport_counters(net),
                obs.tracer.digest() if traced else None,
            )

        fast = run(reference=False)
        assert fast[0][:2] == (2, 3.75)
        assert [name for _, _, name in fast[1]] == ["n1", "n2"]
        assert fast == run(reference=True)


def mine_some_blocks(n=4):
    """A short single-miner run; returns the mined canonical blocks."""
    genesis = make_genesis()
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.05), seed=3)
    miner = FullNode(
        "miner",
        Blockchain(CFG, genesis, execute_transactions=False),
        mining_hashrate=5e4,
        rng_seed=1,
    )
    net.add_node(miner)
    miner.start_mining()
    while miner.chain.height < n:
        sim.run_until(sim.now + 60.0)
    chain = [
        miner.chain.block_by_number(i) for i in range(1, n + 1)
    ]
    return genesis, chain


class TestBlockSyncPrechecks:
    def test_known_and_orphan_shortcuts_match_reference(self):
        genesis, blocks = mine_some_blocks(4)

        def node_state(node):
            return (
                sorted(node.seen_blocks._seen),
                sorted(node.chain.block_index),
                dict(node._requested_parents),
                node.chain.head.block_hash,
                queue_snapshot(node.network.sim),
                node.stats.as_dict(),
            )

        def run(reference):
            network_cls, node_cls = classes(reference)
            sim = Simulator()
            net = network_cls(sim, latency=ConstantLatency(0.05), seed=5)
            node = node_cls(
                "sync",
                Blockchain(CFG, genesis, execute_transactions=False),
                rng_seed=9,
            )
            peer = node_cls(
                "peer",
                Blockchain(CFG, genesis, execute_transactions=False),
                rng_seed=10,
            )
            net.add_node(node)
            net.add_node(peer)
            feed = [
                NewBlock(sender_id="peer", block=blocks[2],
                         total_difficulty=0),  # orphan: parents missing
                NewBlock(sender_id="peer", block=blocks[0],
                         total_difficulty=0),  # imports
                NewBlock(sender_id="peer", block=blocks[0],
                         total_difficulty=0),  # seen -> dropped
                NewBlock(sender_id="peer", block=genesis,
                         total_difficulty=0),  # known
            ]
            for message in feed:
                node.receive(message)
            return node_state(node)

        assert run(reference=False) == run(reference=True)

    def test_served_batch_matches_reference(self):
        genesis, blocks = mine_some_blocks(4)
        from repro.net.messages import Blocks as BlocksMsg

        def run(reference):
            network_cls, node_cls = classes(reference)
            sim = Simulator()
            net = network_cls(sim, latency=ConstantLatency(0.05), seed=5)
            node = node_cls(
                "sync",
                Blockchain(CFG, genesis, execute_transactions=False),
                rng_seed=9,
            )
            peer = node_cls(
                "peer",
                Blockchain(CFG, genesis, execute_transactions=False),
                rng_seed=10,
            )
            net.add_node(node)
            net.add_node(peer)
            # Mixed batch: known genesis, an importable run, an orphan
            # (its parent deliberately withheld), and a duplicate.
            batch = BlocksMsg(
                sender_id="peer",
                blocks=(genesis, blocks[0], blocks[1], blocks[3], blocks[1]),
            )
            node.receive(batch)
            return (
                sorted(node.seen_blocks._seen),
                sorted(node.chain.block_index),
                dict(node._requested_parents),
                queue_snapshot(sim),
            )

        fast = run(reference=False)
        ref = run(reference=True)
        assert fast == ref
        # The orphan follow-up actually happened (one GetBlocks queued).
        assert fast[2]


class TestDispatchEquivalence:
    def test_full_mining_run_identical_under_reference_swaps(self):
        def run(reference):
            network_cls, node_cls = classes(reference)
            genesis = make_genesis()
            sim = Simulator()
            net = network_cls(sim, latency=ConstantLatency(0.05), seed=21)
            nodes = []
            for i in range(6):
                node = node_cls(
                    f"n{i}",
                    Blockchain(CFG, genesis, execute_transactions=False),
                    mining_hashrate=5e4 if i < 2 else 0.0,
                    rng_seed=300 + i,
                )
                net.add_node(node)
                nodes.append(node)
            net.bootstrap_mesh(target_degree=4)
            for node in nodes[:2]:
                node.start_mining()
            sim.run_until(900.0)
            return (
                [node.chain.head.block_hash for node in nodes],
                [node.stats.as_dict() for node in nodes],
                [sorted(node.peers) for node in nodes],
                sim.events_processed,
                net.sim_rng.getstate(),
                transport_counters(net),
            )

        assert run(reference=False) == run(reference=True)

    def test_every_message_class_has_a_dispatch_entry(self):
        """``FullNode.receive`` dispatches through ``_DISPATCH`` alone, so
        a concrete message class without an entry would be dropped on
        delivery.  Ping/Pong are the exception: the resilience preamble
        consumes them, and without a policy they are ignored, as the
        seed ladder ignored them."""
        import inspect

        from repro.net import messages
        from repro.net.node import _DISPATCH

        concrete = {
            cls
            for _, cls in inspect.getmembers(messages, inspect.isclass)
            if issubclass(cls, messages.Message)
            and cls is not messages.Message
        }
        assert concrete - {messages.Ping, messages.Pong} == set(_DISPATCH)

        node = FullNode(
            "n0", Blockchain(CFG, make_genesis(), execute_transactions=False)
        )
        assert node.resilience is None
        before = node.stats.as_dict()
        node.receive(messages.Ping(sender_id="n1"))
        node.receive(messages.Pong(sender_id="n1"))
        assert node.stats.as_dict() == before

    def test_reference_arm_runs_seed_bodies(self, monkeypatch):
        """A reference run must not reach a single fast body.

        Digest equality cannot tell a reference arm that silently runs
        the fast code from a real one, so count calls instead: the fast
        receive, handler and transport bodies stay at zero while the
        reference bodies do the work.
        """
        from collections import Counter

        from repro.perf.reference import ReferencePartitionScenario
        from repro.scenarios.partition_event import PartitionScenarioConfig

        calls = Counter()

        def count(cls, name):
            original = cls.__dict__[name]

            def counted(self, *args):
                calls[f"{cls.__name__}.{name}"] += 1
                return original(self, *args)

            monkeypatch.setattr(cls, name, counted)

        for name in ("receive", "_on_new_block_hashes", "_on_new_block",
                     "_on_get_blocks", "_on_blocks"):
            count(FullNode, name)
        for name in ("receive", "_on_new_block_hashes", "_on_new_block",
                     "_on_get_blocks"):
            count(ReferenceNode, name)
        for name in ("send", "send_wave"):
            count(Network, name)
        count(ReferenceNetwork, "send")

        config = PartitionScenarioConfig(
            num_nodes=10, num_miners=3, post_fork_horizon=240.0, seed=13
        )
        ReferencePartitionScenario(config).run()
        fast = {key: n for key, n in calls.items()
                if not key.startswith("Reference")}
        assert fast == {}
        for name in ("receive", "_on_new_block_hashes", "_on_new_block",
                     "_on_get_blocks"):
            assert calls[f"ReferenceNode.{name}"] > 0, name
        assert calls["ReferenceNetwork.send"] > 0


class TestNodeStats:
    def test_mapping_protocol(self):
        stats = NodeStats()
        assert stats["blocks_imported"] == 0
        stats.blocks_imported += 2
        assert stats["blocks_imported"] == 2
        assert stats.get("blocks_mined") == 0
        assert stats.get("nonsense", -1) == -1
        assert "txs_admitted" in stats
        assert "nonsense" not in stats
        assert len(stats) == len(stats.keys()) == 10
        assert dict(stats.items())["blocks_imported"] == 2
        assert stats.as_dict()["blocks_imported"] == 2
        assert dict(stats) == stats.as_dict()
        with pytest.raises(KeyError):
            stats["nonsense"]
        with pytest.raises(KeyError):
            stats["nonsense"] = 3
        stats["peers_banned"] = 4
        assert stats.peers_banned == 4

    def test_equality_with_dict_and_self(self):
        a, b = NodeStats(), NodeStats()
        assert a == b
        a.dials_started += 1
        assert a != b
        assert a == a.as_dict()
        assert a != {"dials_started": 1}


class TestBenchProfileFlag:
    def test_profile_writes_reports(self, tmp_path, monkeypatch):
        import repro.perf.bench as bench_mod

        monkeypatch.setattr(
            bench_mod, "_REPORTS", {"eventloop": ("eventloop_chain",)}
        )
        paths, all_match = run_bench(
            smoke=True,
            repeats=1,
            only=["eventloop"],
            out_dir=str(tmp_path),
            report_dir=str(tmp_path),
            profile=True,
        )
        assert all_match
        profile = tmp_path / "profile_eventloop_chain.txt"
        assert profile in paths and profile.exists()
        text = profile.read_text()
        assert "cumulative" in text and "run_until" in text
