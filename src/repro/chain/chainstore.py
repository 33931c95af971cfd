"""The chain database: block storage, fork choice, and reorgs.

Every simulated node owns a :class:`Blockchain`.  It stores all observed
blocks (including competing branches), tracks cumulative ("total")
difficulty per branch tip, and keeps the canonical chain pointed at the
heaviest tip — the "participants choose to believe the chain that
represents the most work" rule from the paper's Section 2.

Transient forks (Section 2.1) resolve here automatically: a heavier
competing branch triggers a reorg and the shorter branch's blocks become
orphans.  *Persistent* forks do not resolve here — they are prevented from
resolving by validation: an ETC node never imports the ETH DAO block in the
first place, so the heaviest-chain rule never sees the other side.  That
division of labour (fork choice vs. validity) is exactly what makes a hard
fork a partition rather than a race.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .block import MAX_OMMER_DEPTH, Block, BlockHeader
from .config import ChainConfig
from .processor import BlockResult, apply_block
from .receipt import Receipt
from .state import StateDB
from .types import Address, Hash32
from .validation import (
    ValidationError,
    validate_body,
    validate_header,
    validate_ommers,
)

__all__ = ["Blockchain", "ImportResult", "ChainStoreError"]


class ChainStoreError(Exception):
    pass


@dataclass(frozen=True)
class ImportResult:
    """Outcome of offering one block to the store."""

    status: str  # "imported" | "known" | "orphan" | "invalid"
    reorged: bool = False
    reason: str = ""
    #: Receipts produced if the block was executed (full mode, on canon).
    receipts: Tuple[Receipt, ...] = ()

    @property
    def accepted(self) -> bool:
        return self.status == "imported"


class Blockchain:
    """Block store + heaviest-chain fork choice for one node / one network.

    Parameters
    ----------
    config:
        Chain rules (difficulty algorithm, fork schedule, chain id).
    genesis, genesis_state:
        From :func:`repro.chain.genesis.build_genesis`.
    execute_transactions:
        Full mode runs every imported block through the EVM-backed state
        transition and keeps per-block states (needed for the message-level
        scenario around the DAO fork).  Header mode skips execution — the
        fast simulator and difficulty experiments only need headers.
    state_history:
        How many recent per-block states to retain in full mode (reorg
        depth budget).
    """

    def __init__(
        self,
        config: ChainConfig,
        genesis: Block,
        genesis_state: Optional[StateDB] = None,
        execute_transactions: bool = True,
        state_history: int = 128,
    ) -> None:
        self.config = config
        self.execute_transactions = execute_transactions
        self.state_history = state_history

        self._blocks: Dict[Hash32, Block] = {genesis.block_hash: genesis}
        self._total_difficulty: Dict[Hash32, int] = {
            genesis.block_hash: genesis.difficulty
        }
        self._children: Dict[Hash32, List[Hash32]] = {}
        self._states: Dict[Hash32, StateDB] = {}
        self._receipts: Dict[Hash32, Tuple[Receipt, ...]] = {}
        #: number -> hash along the canonical chain.
        self._canonical: Dict[int, Hash32] = {0: genesis.block_hash}
        self._head_hash: Hash32 = genesis.block_hash
        self.genesis = genesis

        #: Read-only aliases of the hash->block and number->hash indices,
        #: for hot paths that probe membership per message and cannot
        #: afford a method call per probe (``repro.net.node``).  These are
        #: the same dict objects; treat them as immutable views.
        self.block_index = self._blocks
        self.canonical_index = self._canonical

        if execute_transactions:
            if genesis_state is None:
                raise ChainStoreError("full mode requires a genesis state")
            self._states[genesis.block_hash] = genesis_state

        #: Pending DAO-style irregular transfers, applied when the fork
        #: block is executed (set by scenario code before the fork height).
        self.irregular_transfers: List[Tuple[Address, Address]] = []

        #: Uncle hashes already referenced by an imported block.  Tracked
        #: store-wide (not per branch) — a simplification that only
        #: over-rejects in deep-reorg corner cases.
        self._included_ommers: set = set()

    # -- read access -------------------------------------------------------

    @property
    def head(self) -> Block:
        return self._blocks[self._head_hash]

    @property
    def height(self) -> int:
        return self.head.number

    @property
    def total_difficulty(self) -> int:
        return self._total_difficulty[self._head_hash]

    def block_by_hash(self, block_hash: Hash32) -> Optional[Block]:
        return self._blocks.get(block_hash)

    def canonical_hash(self, number: int) -> Optional[Hash32]:
        return self._canonical.get(number)

    def block_by_number(self, number: int) -> Optional[Block]:
        block_hash = self._canonical.get(number)
        return self._blocks.get(block_hash) if block_hash else None

    def __contains__(self, block_hash: Hash32) -> bool:
        return block_hash in self._blocks

    def __len__(self) -> int:
        """Number of blocks on the canonical chain (including genesis)."""
        return self.head.number + 1

    def is_canonical(self, block_hash: Hash32) -> bool:
        block = self._blocks.get(block_hash)
        return block is not None and self._canonical.get(block.number) == block_hash

    def canonical_blocks(
        self, start: int = 0, end: Optional[int] = None
    ) -> Iterator[Block]:
        """Iterate canonical blocks in ``[start, end]`` (inclusive)."""
        last = self.head.number if end is None else min(end, self.head.number)
        for number in range(start, last + 1):
            block = self.block_by_number(number)
            if block is not None:
                yield block

    def head_state(self) -> StateDB:
        if not self.execute_transactions:
            raise ChainStoreError("header-only store keeps no state")
        return self._states[self._head_hash]

    def state_at(self, block_hash: Hash32) -> Optional[StateDB]:
        return self._states.get(block_hash)

    def total_difficulty_of(self, block_hash: Hash32) -> Optional[int]:
        return self._total_difficulty.get(block_hash)

    def branch_tips(self) -> List[Hash32]:
        """All chain tips (hashes with no children), heaviest first."""
        tips = [
            block_hash
            for block_hash in self._blocks
            if not self._children.get(block_hash)
        ]
        tips.sort(key=lambda h: self._total_difficulty[h], reverse=True)
        return tips

    # -- import ------------------------------------------------------------

    def import_block(self, block: Block) -> ImportResult:
        """Validate, store, and (maybe) adopt ``block``.

        Returns an :class:`ImportResult`; invalid blocks are dropped and
        orphans (unknown parent) are reported so the caller can request the
        missing ancestry, like a real sync protocol.
        """
        if block.block_hash in self._blocks:
            return ImportResult(status="known")

        parent = self._blocks.get(block.parent_hash)
        if parent is None:
            return ImportResult(status="orphan", reason="unknown-parent")

        try:
            validate_header(block, parent, self.config)
            validate_body(block, self.config)
            if block.ommers:
                validate_ommers(
                    block,
                    self._ancestor_hashes(parent),
                    self._resolve_header,
                    self.config,
                    self._included_ommers.__contains__,
                )
        except ValidationError as exc:
            return ImportResult(status="invalid", reason=exc.reason)

        receipts: Tuple[Receipt, ...] = ()
        if self.execute_transactions:
            parent_state = self._states.get(block.parent_hash)
            if parent_state is None:
                # Parent state was pruned: treat like an orphan beyond our
                # reorg budget rather than re-deriving megabytes of history.
                return ImportResult(status="orphan", reason="state-pruned")
            state = parent_state.fork()
            try:
                result: BlockResult = apply_block(
                    state, block, self.config, self.irregular_transfers
                )
            except Exception as exc:  # bad state transition = invalid block
                return ImportResult(status="invalid", reason=f"execution: {exc}")
            if block.header.state_root != state.state_root:
                return ImportResult(status="invalid", reason="bad-state-root")
            receipts = result.receipts
            self._states[block.block_hash] = state
            self._receipts[block.block_hash] = receipts
            self._prune_states(block.number)

        self._blocks[block.block_hash] = block
        self._total_difficulty[block.block_hash] = (
            self._total_difficulty[block.parent_hash] + block.difficulty
        )
        self._children.setdefault(block.parent_hash, []).append(block.block_hash)
        for ommer in block.ommers:
            self._included_ommers.add(ommer.block_hash)

        reorged = self._maybe_adopt(block)
        return ImportResult(status="imported", reorged=reorged, receipts=receipts)

    def _maybe_adopt(self, block: Block) -> bool:
        """Heaviest-chain rule; returns True if the head moved branches."""
        new_td = self._total_difficulty[block.block_hash]
        if new_td <= self._total_difficulty[self._head_hash]:
            return False

        old_head = self._head_hash
        extends_head = block.parent_hash == old_head
        self._head_hash = block.block_hash

        if extends_head:
            self._canonical[block.number] = block.block_hash
            return False

        # Reorg: rebuild the canonical index from the new head back to the
        # divergence point.
        cursor: Optional[Block] = block
        while cursor is not None:
            if self._canonical.get(cursor.number) == cursor.block_hash:
                break
            self._canonical[cursor.number] = cursor.block_hash
            cursor = self._blocks.get(cursor.parent_hash)
        # Drop stale canonical entries above the new head.
        for number in list(self._canonical):
            if number > block.number:
                del self._canonical[number]
        return True

    def _prune_states(self, current_number: int) -> None:
        if self.state_history <= 0:
            return
        floor = current_number - self.state_history
        if floor <= 0:
            return
        for block_hash in list(self._states):
            block = self._blocks.get(block_hash)
            if block is not None and 0 < block.number < floor:
                del self._states[block_hash]

    # -- fork bookkeeping ----------------------------------------------------

    def orphaned_blocks(self) -> List[Block]:
        """Stored blocks not on the canonical chain (losing branches)."""
        return [
            block
            for block_hash, block in self._blocks.items()
            if self._canonical.get(block.number) != block_hash
        ]

    def _ancestor_hashes(self, from_block: Block) -> Dict[int, Hash32]:
        """height -> hash for ``from_block`` and its recent ancestors
        (enough generations for uncle validation)."""
        ancestors: Dict[int, Hash32] = {}
        cursor: Optional[Block] = from_block
        for _ in range(MAX_OMMER_DEPTH + 1):
            if cursor is None:
                break
            ancestors[cursor.number] = cursor.block_hash
            cursor = self._blocks.get(cursor.parent_hash)
        return ancestors

    def _resolve_header(self, block_hash: Hash32) -> Optional[BlockHeader]:
        block = self._blocks.get(block_hash)
        return block.header if block is not None else None

    def candidate_ommers(self, max_count: int = 2) -> List[BlockHeader]:
        """Orphaned sibling headers a miner may reference as uncles.

        Returns headers of stored non-canonical blocks within
        ``MAX_OMMER_DEPTH`` of the head whose parent lies on the canonical
        chain and which no imported block has referenced yet — exactly
        what :func:`validate_ommers` will accept on the next block.
        """
        head = self.head
        next_number = head.number + 1
        ancestors = self._ancestor_hashes(head)
        candidates: List[BlockHeader] = []
        for block in self.orphaned_blocks():
            if block.block_hash in self._included_ommers:
                continue
            distance = next_number - block.number
            if not 1 <= distance <= MAX_OMMER_DEPTH:
                continue
            if ancestors.get(block.number - 1) != block.parent_hash:
                continue
            if ancestors.get(block.number) == block.block_hash:
                continue
            candidates.append(block.header)
            if len(candidates) >= max_count:
                break
        return candidates

    def common_ancestor(self, other: "Blockchain") -> Optional[Block]:
        """Highest block canonical on both chains (the fork point finder).

        This is the primitive the analysis layer uses to locate the DAO
        fork: walk down from the lower head until the hashes agree.
        """
        number = min(self.height, other.height)
        while number >= 0:
            mine = self.canonical_hash(number)
            theirs = other.canonical_hash(number)
            if mine is not None and mine == theirs:
                return self._blocks[mine]
            number -= 1
        return None
