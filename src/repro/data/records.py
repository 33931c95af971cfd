"""Analysis-facing record types.

The authors "exported all block and transaction information from the nodes
and processed it in a separate database" (Section 3.1).  These records are
that export format: flat, chain-tagged rows with exactly the fields the
paper's figures consume.  Both data sources produce them —
:func:`export_chain` walks a real :class:`~repro.chain.chainstore.Blockchain`,
and the fast simulator emits them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..chain.chainstore import Blockchain

__all__ = ["BlockRecord", "TxRecord", "export_chain", "export_transactions"]


@dataclass(frozen=True)
class BlockRecord:
    """One block, as the analysis database sees it."""

    chain: str
    number: int
    timestamp: int
    difficulty: int
    #: Human-meaningful miner label (pool name or truncated address).
    miner: str
    tx_count: int
    contract_tx_count: int
    gas_used: int = 0

    @property
    def plain_tx_count(self) -> int:
        return self.tx_count - self.contract_tx_count


@dataclass(frozen=True)
class TxRecord:
    """One transaction observation on one chain.

    The echo detector joins these across chains by ``tx_hash``; a hash seen
    on both sides is a rebroadcast (Figure 4).  ``timestamp`` is the block
    timestamp — the same first-seen proxy the paper uses to attribute echo
    direction.
    """

    chain: str
    tx_hash: bytes
    block_number: int
    timestamp: int
    sender: bytes
    to: Optional[bytes]
    value: int
    is_contract: bool
    replay_protected: bool

    def key(self) -> bytes:
        return self.tx_hash


def export_chain(
    chain: Blockchain,
    pool_label,
    start: int = 0,
    end: Optional[int] = None,
) -> List[BlockRecord]:
    """Export a canonical chain segment to block records.

    ``pool_label`` maps a coinbase :class:`Address` to a display label,
    the string a fork-simulation trace keeps in ``ChainTrace.miner_labels``.
    """
    records = []
    for block in chain.canonical_blocks(start, end):
        contract_count = sum(
            1 for tx in block.transactions if tx.is_contract_interaction
        )
        records.append(
            BlockRecord(
                chain=chain.config.name,
                number=block.number,
                timestamp=block.timestamp,
                difficulty=block.difficulty,
                miner=pool_label(block.coinbase),
                tx_count=len(block.transactions),
                contract_tx_count=contract_count,
                gas_used=block.header.gas_used,
            )
        )
    return records


def export_transactions(
    chain: Blockchain, start: int = 0, end: Optional[int] = None
) -> Iterator[TxRecord]:
    """Yield transaction records for a canonical chain segment."""
    for block in chain.canonical_blocks(start, end):
        for tx in block.transactions:
            yield TxRecord(
                chain=chain.config.name,
                tx_hash=bytes(tx.tx_hash),
                block_number=block.number,
                timestamp=block.timestamp,
                sender=bytes(tx.sender),
                to=bytes(tx.to) if tx.to is not None else None,
                value=tx.value,
                is_contract=tx.is_contract_interaction,
                replay_protected=tx.is_replay_protected,
            )
