"""Per-chain protocol configuration and fork schedules.

A "hard fork" in the paper's sense is a change to these parameters activated
at a block height.  Two nodes whose configurations disagree about a past
activation will reject each other's blocks — that disagreement *is* the
network partition the paper studies.

The two presets mirror the real schedules:

``ETH_CONFIG``
    accepts the DAO irregular state change at block 1,920,000 (July 20,
    2016), reprices state-access gas at 2,463,000 (Nov 22, 2016, EIP-150),
    and enables EIP-155 replay protection at 2,675,000 (chain id 1).

``ETC_CONFIG``
    rejects the DAO state change, reprices gas at 3,000,000 (Jan 13, 2017),
    and adds replay protection (chain id 61) at the same fork — the fork
    the paper notes "lasted much longer than ETH's — 3,583 blocks versus
    86".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .difficulty import HOMESTEAD_RULE, DifficultyRule
from .gas import FRONTIER_SCHEDULE, TANGERINE_SCHEDULE, GasSchedule
from .types import Wei, to_wei

__all__ = [
    "ChainConfig",
    "ETH_CONFIG",
    "ETC_CONFIG",
    "PRE_FORK_CONFIG",
    "DAO_FORK_BLOCK",
    "BLOCK_REWARD",
]

#: Height of the DAO hard fork (July 20, 2016).
DAO_FORK_BLOCK = 1_920_000

#: Static block reward in force throughout the paper's measurement window:
#: "each block mined earns the winner 5 ether" (Section 2.1).
BLOCK_REWARD: Wei = to_wei(5, "ether")

#: Uncle (ommer) inclusion reward fraction: 1/32 of the block reward per
#: uncle referenced, paid to the including miner.
NEPHEW_REWARD_DIVISOR = 32

#: Unix timestamp of the DAO fork, used to anchor simulated clocks to the
#: paper's calendar axis (2016-07-20 13:20:40 UTC).
DAO_FORK_TIMESTAMP = 1_469_020_840

#: Header marker pro-fork clients stamp into the fork block and the nine
#: after it; anti-fork clients reject any block carrying it.
DAO_EXTRA_DATA = b"dao-hard-fork"
DAO_EXTRA_DATA_RANGE = 10


@dataclass(frozen=True)
class ChainConfig:
    """Everything consensus-relevant that can differ between ETH and ETC."""

    name: str
    chain_id: int
    #: Block at which this chain applies (or explicitly refuses) the DAO
    #: irregular state change.  ``dao_fork_support`` picks the side.
    dao_fork_block: int = DAO_FORK_BLOCK
    dao_fork_support: bool = True
    #: EIP-150 gas repricing activation height (None = never).
    gas_reprice_block: Optional[int] = None
    #: EIP-155 replay-protection activation height (None = never).  After
    #: this height the chain *accepts* chain-id transactions; legacy
    #: unprotected transactions remain valid for backwards compatibility,
    #: exactly the opt-in scheme the paper describes.
    replay_protection_block: Optional[int] = None
    #: Difficulty-bomb delay in blocks (ECIP-1010 for ETC).
    bomb_delay: int = 0
    difficulty_rule: DifficultyRule = HOMESTEAD_RULE
    block_reward: Wei = BLOCK_REWARD
    target_block_time: int = 14

    def dao_extra_data(self, block_number: int) -> Optional[bytes]:
        """Required header extra-data near the DAO fork (or None).

        Real clients enforced exactly this: pro-fork geth required the
        marker ``dao-hard-fork`` in the extra-data of the fork block and
        the nine after it, and anti-fork clients rejected blocks carrying
        it.  The marker is what forces the chains to diverge even before
        state roots differ, and what lets a node *identify* which side a
        peer's chain is on.
        """
        in_window = (
            self.dao_fork_block
            <= block_number
            < self.dao_fork_block + DAO_EXTRA_DATA_RANGE
        )
        if in_window and self.dao_fork_support:
            return DAO_EXTRA_DATA
        return None

    def rejects_extra_data(self, block_number: int, extra_data: bytes) -> bool:
        """Would this chain refuse a block for its DAO marker (or lack)?"""
        required = self.dao_extra_data(block_number)
        if required is not None:
            return extra_data != required
        in_window = (
            self.dao_fork_block
            <= block_number
            < self.dao_fork_block + DAO_EXTRA_DATA_RANGE
        )
        if in_window and not self.dao_fork_support:
            return extra_data == DAO_EXTRA_DATA
        return False

    def gas_schedule(self, block_number: int) -> GasSchedule:
        """The opcode gas schedule in force at ``block_number``."""
        if (
            self.gas_reprice_block is not None
            and block_number >= self.gas_reprice_block
        ):
            return TANGERINE_SCHEDULE
        return FRONTIER_SCHEDULE

    def replay_protection_active(self, block_number: int) -> bool:
        return (
            self.replay_protection_block is not None
            and block_number >= self.replay_protection_block
        )

    def accepts_transaction_chain_id(
        self, tx_chain_id: Optional[int], block_number: int
    ) -> bool:
        """Validity of a transaction's chain-id field on this chain.

        * Legacy (no chain id): always valid — this is the replay hole.
        * EIP-155 (chain id set): valid only after activation and only with
          a matching id.
        """
        if tx_chain_id is None:
            return True
        if not self.replay_protection_active(block_number):
            return False
        return tx_chain_id == self.chain_id

    def compute_difficulty(
        self,
        parent_difficulty: int,
        parent_timestamp: int,
        timestamp: int,
        block_number: int,
    ) -> int:
        return self.difficulty_rule(
            parent_difficulty,
            parent_timestamp,
            timestamp,
            block_number,
            self.bomb_delay,
        )

    def fork_summary(self) -> str:
        """Human-readable fork schedule (README / reports)."""
        parts = [f"{self.name} (chain id {self.chain_id})"]
        side = "applies" if self.dao_fork_support else "rejects"
        parts.append(f"  DAO fork @ {self.dao_fork_block}: {side} state change")
        if self.gas_reprice_block is not None:
            parts.append(f"  EIP-150 gas repricing @ {self.gas_reprice_block}")
        if self.replay_protection_block is not None:
            parts.append(
                f"  EIP-155 replay protection @ {self.replay_protection_block}"
            )
        return "\n".join(parts)


ETH_CONFIG = ChainConfig(
    name="ETH",
    chain_id=1,
    dao_fork_support=True,
    gas_reprice_block=2_463_000,
    replay_protection_block=2_675_000,
)

ETC_CONFIG = ChainConfig(
    name="ETC",
    chain_id=61,
    dao_fork_support=False,
    gas_reprice_block=3_000_000,
    replay_protection_block=3_000_000,
    bomb_delay=2_000_000,
)

#: The single pre-fork network both sides share.  Consensus-identical to
#: ETH below the DAO block; used to build the common prefix.
PRE_FORK_CONFIG = replace(ETH_CONFIG, name="pre-fork")
