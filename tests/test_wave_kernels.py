"""Differential tests: delivery-wave kernels, dispatch table, SoA stats.

The wave kernels (:meth:`Network._send_wave_plain` /
:meth:`Network._send_wave_general`) must consume RNG draws in exactly
the per-send reference order and enqueue byte-identical deliveries; the
exact-type dispatch table must be observationally identical to the seed
``isinstance`` ladder; the block-sync pre-checks must reproduce
``import_block``'s verdicts; and :class:`NodeStats` must read like the
dict it replaced.
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
from repro.perf.reference import reference_event_loop
from repro.perf.soa import NodeStats

CFG = replace(ETH_CONFIG, dao_fork_block=10**9, bomb_delay=10**9)


def make_genesis():
    genesis, _ = build_genesis({}, difficulty=200_000)
    return genesis


def build_net(latency, seed=7, num_nodes=12, offline=(3,)):
    genesis = make_genesis()
    sim = Simulator()
    net = Network(sim, latency=latency, seed=seed)
    regions = ("eu", "us", "asia")
    for i in range(num_nodes):
        node = FullNode(
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
            sim, net, _ = build_net(latency)
            message = NewBlockHashes(sender_id="n0", hashes=())
            destinations = [f"n{i}" for i in range(1, 12)]
            if reference:
                with reference_event_loop():
                    net.send_wave("n0", destinations, message)
            else:
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
            sim, net, _ = build_net(latency)
            message = GetBlocks(sender_id="n0", hashes=())
            if reference:
                with reference_event_loop():
                    for dest in ("n1", "n2", "n3", "n4"):
                        net.send("n0", dest, message)
            else:
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
            genesis = make_genesis()
            sim = Simulator()
            net = Network(sim, latency=latency, seed=11, loss_rate=0.2)
            net.track_block_propagation = True
            for i in range(10):
                node = FullNode(
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
            if reference:
                with reference_event_loop():
                    net.send_wave("n0", destinations, message)
            else:
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
            sim = Simulator()
            net = Network(sim, latency=ConstantLatency(0.05), seed=5)
            node = FullNode(
                "sync",
                Blockchain(CFG, genesis, execute_transactions=False),
                rng_seed=9,
            )
            peer = FullNode(
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
            if reference:
                with reference_event_loop():
                    for message in feed:
                        node.receive(message)
            else:
                for message in feed:
                    node.receive(message)
            return node_state(node)

        assert run(reference=False) == run(reference=True)

    def test_served_batch_matches_reference(self):
        genesis, blocks = mine_some_blocks(4)
        from repro.net.messages import Blocks as BlocksMsg

        def run(reference):
            sim = Simulator()
            net = Network(sim, latency=ConstantLatency(0.05), seed=5)
            node = FullNode(
                "sync",
                Blockchain(CFG, genesis, execute_transactions=False),
                rng_seed=9,
            )
            peer = FullNode(
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
            if reference:
                with reference_event_loop():
                    node.receive(batch)
            else:
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
            genesis = make_genesis()
            sim = Simulator()
            net = Network(sim, latency=ConstantLatency(0.05), seed=21)
            nodes = []
            for i in range(6):
                node = FullNode(
                    f"n{i}",
                    Blockchain(CFG, genesis, execute_transactions=False),
                    mining_hashrate=5e4 if i < 2 else 0.0,
                    rng_seed=300 + i,
                )
                net.add_node(node)
                nodes.append(node)
            if reference:
                with reference_event_loop():
                    net.bootstrap_mesh(target_degree=4)
                    for node in nodes[:2]:
                        node.start_mining()
                    sim.run_until(900.0)
            else:
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

    def test_reference_swaps_are_restored(self):
        from repro.net.kademlia import RoutingTable

        saved = (
            Network.use_fast_path,
            FullNode.receive,
            RoutingTable.observe,
            FullNode._on_new_block,
            FullNode._on_blocks,
            FullNode._on_new_block_hashes,
            FullNode._on_get_blocks,
        )
        with reference_event_loop():
            assert Network.use_fast_path is False
            assert FullNode.receive is FullNode.receive_reference
            assert RoutingTable.observe is RoutingTable.observe_reference
            assert FullNode._on_new_block is FullNode._on_new_block_reference
            assert FullNode._on_blocks is FullNode._on_blocks_reference
        assert (
            Network.use_fast_path,
            FullNode.receive,
            RoutingTable.observe,
            FullNode._on_new_block,
            FullNode._on_blocks,
            FullNode._on_new_block_hashes,
            FullNode._on_get_blocks,
        ) == saved


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
