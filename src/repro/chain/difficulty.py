"""The Ethereum difficulty-adjustment algorithm.

This module is the mechanism behind the paper's Figure 1 and Observation 2.
Quoting Section 3.2: "block generation is limited by the difficulty
parameter, which is calculated based on the difficulty of the previous
block: if the time between blocks is below the target of 14 seconds, the
difficulty is raised; if the time between blocks is above 14 seconds, the
difficulty is lowered, but there is a cap in the absolute difference in
difficulty between two blocks."

That cap — the ``-99`` clamp in the Homestead rule below — is why ETC took
*two days* to recover after losing ~90% of its hashpower at the fork: each
block can shed at most ``parent_difficulty // 2048 * 99`` (< 5%) of its
difficulty, and blocks were arriving ~20 minutes apart while difficulty was
still sized for the full network.

We implement the consensus rules exactly as specified:

* **Frontier** (launch, July 2015): ±``parent // 2048`` based on a 13-second
  threshold.
* **Homestead** (March 2016, EIP-2; in force at the DAO fork):
  ``parent + parent // 2048 * max(1 - (delta // 10), -99)``.
* The **difficulty bomb** (exponential ice-age term) included from Frontier:
  ``2 ** (number // 100_000 - 2)``.
* **ECIP-1010** style bomb delay, which ETC adopted — exposed as an option
  so long-horizon ETC simulations do not freeze.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "MIN_DIFFICULTY",
    "DIFFICULTY_BOUND_DIVISOR",
    "HOMESTEAD_CLAMP",
    "TARGET_BLOCK_TIME",
    "frontier_difficulty",
    "homestead_difficulty",
    "difficulty_bomb",
    "DifficultyRule",
    "HOMESTEAD_RULE",
    "FRONTIER_RULE",
    "expected_block_time",
    "equilibrium_difficulty",
]

#: The protocol floor: difficulty never drops below this (genesis value).
MIN_DIFFICULTY = 131_072

#: ``parent_difficulty // 2048`` is the adjustment quantum.
DIFFICULTY_BOUND_DIVISOR = 2_048

#: Homestead clamps the per-block adjustment multiplier at -99, i.e. a block
#: can lower difficulty by at most ``99/2048`` (~4.8%) of its parent's.
HOMESTEAD_CLAMP = -99

#: The average block interval the adjustment converges to.  The Homestead
#: rule's ``1 - delta // 10`` term balances at deltas in [10, 20); with
#: exponentially distributed block times this yields the ~14 s average the
#: paper quotes.
TARGET_BLOCK_TIME = 14

#: Period (in blocks) of the difficulty bomb's exponentiation.
BOMB_PERIOD = 100_000


def difficulty_bomb(block_number: int, delay_blocks: int = 0) -> int:
    """The "ice age" term added to every block's difficulty.

    ``delay_blocks`` implements ECIP-1010-style bomb postponement: the bomb
    computes as if the chain were ``delay_blocks`` younger.  At the July
    2016 fork height (1.92M) the bomb term is 2**17 ≈ 1.3e5 — already
    present but ~8 orders of magnitude below total difficulty.
    """
    effective = max(block_number - delay_blocks, 0)
    exponent = effective // BOMB_PERIOD - 2
    if exponent < 0:
        return 0
    return 2**exponent


def frontier_difficulty(
    parent_difficulty: int,
    parent_timestamp: int,
    timestamp: int,
    block_number: int,
    bomb_delay: int = 0,
) -> int:
    """The original (pre-Homestead) rule: a fixed step up or down.

    Raise by ``parent // 2048`` when the gap is under 13 s, lower by the
    same amount otherwise.  Kept both for historical fidelity (pre-fork
    blocks) and as an ablation comparator.
    """
    if timestamp <= parent_timestamp:
        raise ValueError("timestamp must increase between blocks")
    adjustment = parent_difficulty // DIFFICULTY_BOUND_DIVISOR
    if timestamp - parent_timestamp < 13:
        difficulty = parent_difficulty + adjustment
    else:
        difficulty = parent_difficulty - adjustment
    difficulty += difficulty_bomb(block_number, bomb_delay)
    return max(difficulty, MIN_DIFFICULTY)


def homestead_difficulty(
    parent_difficulty: int,
    parent_timestamp: int,
    timestamp: int,
    block_number: int,
    bomb_delay: int = 0,
) -> int:
    """EIP-2 rule, in force on both ETH and ETC at the DAO fork.

    ``difficulty = parent + parent // 2048 * max(1 - (ts - parent_ts) // 10,
    -99) + bomb``.  The ``max(..., -99)`` clamp bounds how fast difficulty
    can fall and is directly responsible for ETC's two-day stall after the
    fork (Figure 1).
    """
    if timestamp <= parent_timestamp:
        raise ValueError("timestamp must increase between blocks")
    delta = timestamp - parent_timestamp
    multiplier = max(1 - delta // 10, HOMESTEAD_CLAMP)
    difficulty = (
        parent_difficulty
        + parent_difficulty // DIFFICULTY_BOUND_DIVISOR * multiplier
    )
    difficulty += difficulty_bomb(block_number, bomb_delay)
    return max(difficulty, MIN_DIFFICULTY)


@dataclass(frozen=True)
class DifficultyRule:
    """A named difficulty algorithm, selectable per chain configuration."""

    name: str
    compute: Callable[[int, int, int, int, int], int]

    def __call__(
        self,
        parent_difficulty: int,
        parent_timestamp: int,
        timestamp: int,
        block_number: int,
        bomb_delay: int = 0,
    ) -> int:
        return self.compute(
            parent_difficulty, parent_timestamp, timestamp, block_number, bomb_delay
        )


FRONTIER_RULE = DifficultyRule("frontier", frontier_difficulty)
HOMESTEAD_RULE = DifficultyRule("homestead", homestead_difficulty)


def expected_block_time(difficulty: int, network_hashrate: float) -> float:
    """Mean solve time in seconds for the whole network.

    Mining is a Poisson race: a network computing ``network_hashrate``
    hashes/second against difficulty ``d`` finds blocks at rate ``h / d``,
    so the expected inter-block time is ``d / h``.  This identity converts
    between the difficulty series (Figures 1-2) and hashpower, and its
    inverse drives Figure 3's "expected hashes per USD".
    """
    if network_hashrate <= 0:
        return float("inf")
    return difficulty / network_hashrate


def equilibrium_difficulty(network_hashrate: float) -> int:
    """Difficulty at which expected block time equals the ~14 s target.

    The adjustment rule steers difficulty toward this fixed point; the
    post-fork ETC trajectory in Figure 1 is the transient from the old
    equilibrium (sized for 100% hashpower) to this one (sized for ~9%).
    """
    return max(int(network_hashrate * TARGET_BLOCK_TIME), MIN_DIFFICULTY)
