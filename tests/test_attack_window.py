"""Attack-window analysis: Nakamoto races and the vulnerability window."""

import pytest

from repro.scenarios.attack_window import (
    AttackAssessment,
    assess_attack_window,
    catchup_probability,
    simulate_race,
    vulnerability_window_days,
)


class TestCatchupProbability:
    def test_majority_always_wins(self):
        assert catchup_probability(0.51, 6) == 1.0
        assert catchup_probability(0.9, 100) == 1.0

    def test_zero_deficit_is_certain(self):
        assert catchup_probability(0.1, 0) == 1.0

    def test_nakamoto_values(self):
        # q=0.1, z=6: (0.1/0.9)^6 ≈ 1.88e-6 — the white paper's table.
        assert catchup_probability(0.1, 6) == pytest.approx(
            (1 / 9) ** 6
        )
        assert catchup_probability(0.3, 6) == pytest.approx(
            (3 / 7) ** 6
        )

    def test_monotone_in_share_and_deficit(self):
        assert catchup_probability(0.3, 6) > catchup_probability(0.2, 6)
        assert catchup_probability(0.3, 6) > catchup_probability(0.3, 8)

    def test_invalid_share(self):
        with pytest.raises(ValueError):
            catchup_probability(1.5, 6)

    def test_monte_carlo_majority(self):
        assert simulate_race(0.6, 6, trials=500) == 1.0


class TestAssessment:
    def make(self, honest=(1.0, 2.0, 10.0), attacker_share=0.02,
             prefork=100.0):
        return assess_attack_window(
            minority_hashrate=honest,
            minority_difficulty=[h * 14 for h in honest],
            minority_price_usd=[1.0] * len(honest),
            prefork_hashrate=prefork,
            attacker_prefork_share=attacker_share,
        )

    def test_share_computation(self):
        # Attacker hashrate = 2; honest day 0 = 1 → share 2/3.
        assessments = self.make()
        assert assessments[0].attacker_minority_share == pytest.approx(2 / 3)
        assert assessments[0].has_majority
        assert assessments[2].attacker_minority_share == pytest.approx(
            2 / 12
        )
        assert not assessments[2].has_majority

    def test_double_spend_probability_tracks_share(self):
        assessments = self.make()
        assert assessments[0].double_spend_probability == 1.0
        assert assessments[2].double_spend_probability < 0.01

    def test_cost_scales_with_difficulty(self):
        assessments = self.make()
        assert (
            assessments[2].expected_hashes
            == 10 * assessments[0].expected_hashes
        )

    def test_opportunity_cost_formula(self):
        assessments = self.make()
        # 6 blocks x reward x price = 30 USD regardless of difficulty
        # (cost floor = the honest revenue the same expected work earns).
        assert assessments[0].opportunity_cost_usd == pytest.approx(30.0)

    def test_vulnerability_window(self):
        assessments = self.make(honest=(0.5, 1.0, 10.0, 10.0))
        assert vulnerability_window_days(assessments) == 2
        safe = self.make(honest=(10.0, 10.0))
        assert vulnerability_window_days(safe) is None

    def test_invalid_attacker_share(self):
        with pytest.raises(ValueError):
            self.make(attacker_share=0.0)
