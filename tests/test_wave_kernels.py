"""Differential tests: delivery-wave kernels, dispatch table, SoA stats.

The wave kernels (:meth:`Network._send_wave_plain` /
:meth:`Network._send_wave_general`) must consume RNG draws in exactly
the per-send reference order and enqueue byte-identical deliveries; the
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
    ``(time, seq, handle)`` whose callback is a bound ``receive``."""
    return sorted(
        (
            entry[0],
            entry[1],
            entry[2].name if len(entry) == 4
            else entry[2].callback.__self__.name,
        )
        for entry in sim._queue
    )


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
        for name in ("send", "send_wave", "_send_wave_plain",
                     "_send_wave_general"):
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
