"""Scenario tests: the DAO story, replay workload, upgrade forks."""

import pytest

from repro.chain.types import ether, from_wei
from repro.core.echoes import EchoDetector
from repro.scenarios.dao import DaoScenario, DaoScenarioConfig
from repro.scenarios.dos_forks import (
    ETC_DIFFUSE_FORK,
    ETH_EIP150_FORK,
    UpgradeForkConfig,
    UpgradeForkModel,
    compare_upgrade_forks,
)
from repro.scenarios.replay_attack import (
    ReplayModel,
    ReplayWorkload,
    ReplayWorkloadConfig,
)


@pytest.fixture(scope="module")
def dao_result():
    return DaoScenario(DaoScenarioConfig(fork_block=12)).run()


class TestDaoScenario:
    def test_attack_profits(self, dao_result):
        assert dao_result.drained > DaoScenarioConfig().attacker_stake

    def test_chains_share_prefix_and_diverge(self, dao_result):
        ancestor = dao_result.eth_chain.common_ancestor(dao_result.etc_chain)
        assert ancestor.number == 12 - 1
        eth_fork = dao_result.eth_chain.block_by_number(12)
        etc_fork = dao_result.etc_chain.block_by_number(12)
        assert eth_fork.block_hash != etc_fork.block_hash

    def test_irregular_transfer_applied_on_eth_only(self, dao_result):
        assert dao_result.attacker_balance(dao_result.eth_chain) == 0
        assert dao_result.refund_balance(
            dao_result.eth_chain
        ) == dao_result.drained
        # Code is law on ETC: the attacker keeps the loot.
        assert dao_result.attacker_balance(
            dao_result.etc_chain
        ) == dao_result.drained
        assert dao_result.refund_balance(dao_result.etc_chain) == 0

    def test_state_roots_differ_at_fork_block(self, dao_result):
        eth_fork = dao_result.eth_chain.block_by_number(12)
        etc_fork = dao_result.etc_chain.block_by_number(12)
        assert eth_fork.header.state_root != etc_fork.header.state_root

    def test_cross_imports_refused(self, dao_result):
        eth_fork = dao_result.eth_chain.block_by_number(12)
        result = dao_result.etc_chain.import_block(eth_fork)
        assert result.status == "invalid"

    def test_replay_executed_on_both_chains(self, dao_result):
        """Act 6: Bob received the payment twice."""
        bob = dao_result.keys["bob"].address
        eth_balance = dao_result.eth_chain.head_state().balance_of(bob)
        etc_balance = dao_result.etc_chain.head_state().balance_of(bob)
        assert eth_balance == etc_balance == ether(5) + ether(7)

    def test_replayed_tx_same_hash_on_both_chains(self, dao_result):
        tx_hash = dao_result.replayed_tx.tx_hash
        found = 0
        for chain in (dao_result.eth_chain, dao_result.etc_chain):
            for block in chain.canonical_blocks():
                if tx_hash in block.transaction_hashes():
                    found += 1
        assert found == 2

    def test_echo_detector_finds_the_replay(self, dao_result):
        from repro.data.records import export_transactions
        from repro.data.sightings import Sightings

        detector = EchoDetector()
        records = []
        for chain in (dao_result.eth_chain, dao_result.etc_chain):
            records.extend(export_transactions(chain))
        records.sort(key=lambda r: (r.timestamp, r.chain))
        detector.observe_records(Sightings.from_records(records))
        echo_hashes = {echo.tx_hash for echo in detector.echoes}
        assert bytes(dao_result.replayed_tx.tx_hash) in echo_hashes


class TestReplayWorkload:
    def test_decay_curves(self):
        model = ReplayModel()
        assert model.replayable_fraction(0) > 0.8
        assert model.replayable_fraction(100) < model.replayable_fraction(10)
        # Chain-id activation bites.
        assert model.replayable_fraction(178) < model.replayable_fraction(176) * 0.7
        assert model.rebroadcast_probability(0) > 0.2
        assert model.rebroadcast_probability(250) < 0.05

    def test_bumps_raise_probability(self):
        model = ReplayModel()
        assert model.rebroadcast_probability(115) > model.rebroadcast_probability(100)

    def test_generated_echoes_match_ground_truth(self):
        config = ReplayWorkloadConfig(days=30, seed=1)
        workload = ReplayWorkload(config)
        sightings, truth = workload.generate([40_000.0] * 30, [16_000.0] * 30)
        detector = EchoDetector()
        found = detector.observe_records(sightings)
        assert found == truth.total()
        directions = detector.direction_totals()
        assert directions.get(("ETH", "ETC"), 0) == truth.echoes_into["ETC"]

    def test_mostly_eth_to_etc(self):
        """Figure 4's direction finding."""
        workload = ReplayWorkload(ReplayWorkloadConfig(days=20, seed=2))
        _, truth = workload.generate([40_000.0] * 20, [16_000.0] * 20)
        assert truth.echoes_into["ETC"] > 3 * truth.echoes_into["ETH"]

    def test_echo_volume_decays(self):
        workload = ReplayWorkload(ReplayWorkloadConfig(days=270, seed=3))
        _, truth = workload.generate([40_000.0] * 270, [16_000.0] * 270)
        early = sum(truth.per_day_into_etc.get(d, 0)
                    for d in range(min(truth.per_day_into_etc), min(truth.per_day_into_etc) + 7))
        late_start = max(truth.per_day_into_etc) - 7
        late = sum(truth.per_day_into_etc.get(d, 0)
                   for d in range(late_start, late_start + 7))
        assert early > 10 * max(late, 1)

    def test_deterministic_per_seed(self):
        a = ReplayWorkload(ReplayWorkloadConfig(days=5, seed=9))
        b = ReplayWorkload(ReplayWorkloadConfig(days=5, seed=9))
        sa, ta = a.generate([1000.0] * 5, [400.0] * 5)
        sb, tb = b.generate([1000.0] * 5, [400.0] * 5)
        assert ta.total() == tb.total()
        assert sa.hashes == sb.hashes


class TestUpgradeForks:
    def test_outcome_scales_with_notice_time(self):
        fast = UpgradeForkModel(
            UpgradeForkConfig("fast", 0.2, mean_notice_hours=1.0, seed=5)
        ).run()
        slow = UpgradeForkModel(
            UpgradeForkConfig("slow", 0.2, mean_notice_hours=50.0, seed=5)
        ).run()
        assert slow.minority_branch_length > 5 * fast.minority_branch_length

    def test_calibrated_comparison_matches_paper_shape(self):
        """ETH 86 vs ETC 3,583: the ratio is what we reproduce."""
        eth, etc = compare_upgrade_forks(trials=15)
        assert 30 <= eth.minority_branch_length <= 300
        assert 1_500 <= etc.minority_branch_length <= 8_000
        ratio = etc.minority_branch_length / max(eth.minority_branch_length, 1)
        assert 10 <= ratio <= 150

    def test_branch_always_dies(self):
        outcome = UpgradeForkModel(ETH_EIP150_FORK).run()
        assert outcome.resolution_hours < 24 * 14

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UpgradeForkConfig("bad", laggard_fraction=0.0, mean_notice_hours=1)
        with pytest.raises(ValueError):
            UpgradeForkConfig("bad", laggard_fraction=0.5, mean_notice_hours=0)
