"""Network harness extras: census, transport, lifecycle, latency models."""

import random
import warnings
from dataclasses import replace

import pytest

from repro.chain.chainstore import Blockchain
from repro.chain.config import ETC_CONFIG, ETH_CONFIG
from repro.chain.genesis import build_genesis
from repro.net.latency import (
    ConstantLatency,
    GeographicLatency,
    LognormalLatency,
    UniformLatency,
)
from repro.net.messages import Ping
from repro.net.network import Network
from repro.net.node import FullNode
from repro.net.simulator import Simulator

CFG = replace(ETH_CONFIG, dao_fork_block=10**9, bomb_delay=10**9)


def tiny_network(n=3, seed=1):
    genesis, _ = build_genesis({})
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01), seed=seed)
    nodes = [
        FullNode(f"n{i}", Blockchain(CFG, genesis, execute_transactions=False),
                 rng_seed=i)
        for i in range(n)
    ]
    for node in nodes:
        net.add_node(node)
    return sim, net, nodes


class TestTransport:
    def test_message_counted_and_delivered(self):
        sim, net, nodes = tiny_network()
        received = []
        nodes[1].receive = lambda msg: received.append(msg)
        net.send("n0", "n1", Ping(sender_id="n0"))
        sim.run_all()
        assert net.messages_sent == 1
        assert len(received) == 1

    def test_offline_destination_drops(self):
        sim, net, nodes = tiny_network()
        nodes[1].go_offline()
        net.send("n0", "n1", Ping(sender_id="n0"))
        sim.run_all()
        assert net.messages_undeliverable == 1
        assert net.messages_sent == 0

    def test_unknown_destination_drops(self):
        sim, net, _ = tiny_network()
        net.send("n0", "ghost", Ping(sender_id="n0"))
        assert net.messages_undeliverable == 1

    def test_loss_rate(self):
        genesis, _ = build_genesis({})
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01), seed=3,
                      loss_rate=0.5)
        a = FullNode("a", Blockchain(CFG, genesis, execute_transactions=False))
        b = FullNode("b", Blockchain(CFG, genesis, execute_transactions=False))
        net.add_node(a)
        net.add_node(b)
        for _ in range(200):
            net.send("a", "b", Ping(sender_id="a"))
        assert 50 < net.messages_lost < 150

    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            Network(Simulator(), loss_rate=1.0)

    def test_duplicate_node_name_rejected(self):
        sim, net, nodes = tiny_network()
        genesis, _ = build_genesis({})
        with pytest.raises(ValueError):
            net.add_node(
                FullNode("n0", Blockchain(CFG, genesis,
                                          execute_transactions=False))
            )

    def test_remove_node(self):
        sim, net, nodes = tiny_network()
        net.remove_node("n1")
        assert "n1" not in net.nodes
        assert not nodes[1].online

    def test_remove_node_evicts_from_peers_and_routing(self):
        sim, net, nodes = tiny_network()
        nodes[0].dial("n1")
        sim.run_all()
        assert "n1" in nodes[0].peers
        assert "n1" in nodes[0].routing
        net.remove_node("n1")
        assert "n1" not in nodes[0].peers
        assert "n1" not in nodes[0].routing
        # The census must not count links to a node that no longer exists.
        assert net.mean_peer_count() == 0.0


class TestDropCounters:
    def test_undeliverable_vs_lost_split(self):
        sim, net, nodes = tiny_network()
        nodes[1].go_offline()
        net.send("n0", "n1", Ping(sender_id="n0"))
        net.send("n0", "ghost", Ping(sender_id="n0"))
        assert net.messages_undeliverable == 2
        assert net.messages_lost == 0
        assert net.messages_blocked == 0

    def test_sampled_loss_counts_as_lost(self):
        genesis, _ = build_genesis({})
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01), seed=3,
                      loss_rate=0.5)
        net.add_node(
            FullNode("a", Blockchain(CFG, genesis, execute_transactions=False))
        )
        net.add_node(
            FullNode("b", Blockchain(CFG, genesis, execute_transactions=False))
        )
        for _ in range(200):
            net.send("a", "b", Ping(sender_id="a"))
        assert net.messages_lost > 0
        assert net.messages_undeliverable == 0

    def test_split_counters_do_not_warn(self):
        sim, net, nodes = tiny_network()
        net.send("n0", "ghost", Ping(sender_id="n0"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total = (
                net.messages_lost
                + net.messages_undeliverable
                + net.messages_blocked
            )
        assert total == 1


class TestCensusAndUpgrades:
    def test_prefork_census_is_one_group(self):
        sim, net, _ = tiny_network()
        census = net.census()
        assert census.count("pre-fork") == 3
        assert census.fraction("pre-fork") == 1.0

    def test_upgrade_log_records_time_and_name(self):
        sim, net, nodes = tiny_network()
        sim.run_until(42)
        nodes[0].upgrade(replace(ETC_CONFIG, dao_fork_block=10**9))
        assert net.upgrade_log == [(42.0, "n0")]

    def test_offline_nodes_excluded_from_census(self):
        sim, net, nodes = tiny_network()
        nodes[2].go_offline()
        assert net.census().count("pre-fork") == 2

    def test_mean_peer_count(self):
        sim, net, nodes = tiny_network()
        nodes[0].peers = {"n1"}
        nodes[1].peers = {"n0", "n2"}
        nodes[2].peers = {"n1"}
        assert net.mean_peer_count() == pytest.approx(4 / 3)


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.25)
        assert model.sample(random.Random(1)) == 0.25
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_bounds(self):
        model = UniformLatency(0.1, 0.2)
        rng = random.Random(2)
        samples = [model.sample(rng) for _ in range(100)]
        assert all(0.1 <= s <= 0.2 for s in samples)
        with pytest.raises(ValueError):
            UniformLatency(0.3, 0.2)

    def test_lognormal_median(self):
        model = LognormalLatency(median=0.1, sigma=0.5)
        rng = random.Random(3)
        samples = sorted(model.sample(rng) for _ in range(999))
        assert samples[499] == pytest.approx(0.1, rel=0.2)
        with pytest.raises(ValueError):
            LognormalLatency(median=0)

    def test_geographic_symmetry_and_locality(self):
        model = GeographicLatency(jitter_sigma=1e-9)
        rng = random.Random(4)
        na_eu = model.delay_between("na", "eu", rng)
        eu_na = model.delay_between("eu", "na", rng)
        assert na_eu == pytest.approx(eu_na, rel=0.01)
        local = model.delay_between("eu", "eu", rng)
        assert local < na_eu

    def test_geographic_unknown_pair_falls_back(self):
        model = GeographicLatency(jitter_sigma=1e-9)
        rng = random.Random(5)
        assert model.delay_between("mars", "eu", rng) == pytest.approx(
            0.12, rel=0.01
        )

    def test_geographic_rejects_negative_jitter_sigma(self):
        # Silently "worked" before validation: lognormvariate accepts a
        # negative sigma and just mirrors the distribution.
        with pytest.raises(ValueError, match="jitter_sigma"):
            GeographicLatency(jitter_sigma=-0.1)

    def test_geographic_rejects_negative_base_delay(self):
        with pytest.raises(ValueError, match="non-negative"):
            GeographicLatency(base={("na", "eu"): -0.05})

    def test_geographic_zero_jitter_is_deterministic(self):
        model = GeographicLatency(jitter_sigma=0.0)
        rng = random.Random(6)
        assert model.delay_between("na", "eu", rng) == pytest.approx(0.09)

    def test_geographic_strict_unknown_pair_raises(self):
        model = GeographicLatency(strict=True)
        rng = random.Random(7)
        state = rng.getstate()
        with pytest.raises(KeyError, match="mars"):
            model.delay_between("mars", "eu", rng)
        # Lookup happens before any jitter draw, so a raising call must
        # not advance the RNG (a silent draw would desync replays).
        assert rng.getstate() == state
        # Known pairs still work in strict mode.
        assert model.delay_between("na", "eu", rng) > 0

    def test_geographic_default_delay_is_configurable(self):
        model = GeographicLatency(jitter_sigma=0.0, default_delay=0.5)
        rng = random.Random(8)
        assert model.delay_between("mars", "eu", rng) == pytest.approx(0.5)
        with pytest.raises(ValueError, match="default_delay"):
            GeographicLatency(default_delay=-0.1)

    def test_geographic_symmetrization_conflict_raises(self):
        with pytest.raises(ValueError, match="conflicting base delays"):
            GeographicLatency(
                base={("na", "eu"): 0.09, ("eu", "na"): 0.10}
            )

    def test_geographic_equal_duplicates_accepted(self):
        model = GeographicLatency(
            base={("na", "eu"): 0.09, ("eu", "na"): 0.09},
            jitter_sigma=0.0,
        )
        rng = random.Random(9)
        assert model.delay_between("na", "eu", rng) == pytest.approx(0.09)
        assert model.delay_between("eu", "na", rng) == pytest.approx(0.09)

    def test_strict_geographic_raises_through_network_send(self):
        genesis, _ = build_genesis({})
        sim = Simulator()
        net = Network(
            sim, latency=GeographicLatency(strict=True), seed=11
        )
        nodes = [
            FullNode(
                f"n{i}",
                Blockchain(CFG, genesis, execute_transactions=False),
                rng_seed=i,
            )
            for i in range(2)
        ]
        for node in nodes:
            net.add_node(node)
        nodes[1].region = "atlantis"
        with pytest.raises(KeyError, match="atlantis"):
            net.send("n0", "n1", Ping(sender_id="n0"))


class TestNodeLifecycle:
    def test_offline_node_ignores_messages(self):
        sim, net, nodes = tiny_network()
        nodes[0].dial("n1")
        sim.run_all()
        assert "n0" in nodes[1].peers
        nodes[1].go_offline()
        nodes[1].receive(Ping(sender_id="n0"))  # no crash, no effect
        assert not nodes[1].peers

    def test_drop_all_peers(self):
        sim, net, nodes = tiny_network()
        nodes[0].dial("n1")
        nodes[0].dial("n2")
        sim.run_all()
        nodes[0].drop_all_peers()
        sim.run_all()
        assert not nodes[0].peers
        assert "n0" not in nodes[1].peers

    def test_upgrade_changes_config_everywhere(self):
        sim, net, nodes = tiny_network()
        new_config = replace(ETC_CONFIG, dao_fork_block=10**9)
        nodes[0].upgrade(new_config)
        assert nodes[0].config is new_config
        assert nodes[0].mempool.config is new_config
        assert nodes[0].network_name == "ETC"

    def test_fork_block_hash_none_below_height(self):
        sim, net, nodes = tiny_network()
        assert nodes[0].fork_block_hash() is None
