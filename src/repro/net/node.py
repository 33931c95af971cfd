"""Full-node behaviour: handshakes, sync, gossip, mining, and upgrades.

A :class:`FullNode` owns a :class:`~repro.chain.chainstore.Blockchain`, a
:class:`~repro.net.mempool.Mempool`, a Kademlia routing table, and a peer
set.  The behaviours that produce the paper's observations all live here:

* **handshake fork check** — peers that disagree about the canonical block
  at the DAO fork height disconnect (``INCOMPATIBLE_FORK``).  When most of
  the network upgrades at the fork, un-upgraded nodes watch their peer
  lists evaporate: Observation 1's "sudden loss of roughly 90% of the
  nodes".
* **two-tier block gossip** and pull-based catch-up sync;
* **transaction gossip** feeding per-node mempools;
* **mining attachment** — an optional Poisson mining process that
  assembles blocks from the local mempool and broadcasts wins;
* **upgrade** — switching the node's :class:`ChainConfig` mid-simulation,
  the mechanical act of "taking the fork".
"""

from __future__ import annotations

import random
import zlib
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from ..chain.block import Block, BlockHeader, ommers_root, transactions_root
from ..chain.chainstore import Blockchain
from ..chain.config import ChainConfig
from ..chain.processor import apply_block
from ..chain.transaction import SignedTransaction
from ..chain.types import Address, Hash32
from ..perf.soa import NodeStats
from .gossip import SeenCache, split_push_announce
from .kademlia import RoutingTable
from .mempool import Mempool
from .messages import (
    Blocks,
    Disconnect,
    DisconnectReason,
    FindNode,
    GetBlocks,
    Message,
    Neighbors,
    NewBlock,
    NewBlockHashes,
    Ping,
    Pong,
    Status,
    Transactions,
)

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

__all__ = ["FullNode", "ResiliencePolicy", "PROTOCOL_VERSION"]

PROTOCOL_VERSION = 63


@dataclass(frozen=True)
class ResiliencePolicy:
    """Opt-in peer-level resilience knobs.

    ``None`` (the default everywhere) preserves the seed behaviour
    byte-for-byte: no dial bookkeeping, no pings, no scoring — so the
    calibrated partition scenario and its pinned observations are
    untouched.  Chaos runs construct nodes with a policy, which enables:

    * **dial timeouts with exponential backoff and a retry budget** — an
      unanswered dial backs the peer off ``backoff_base * 2^(n-1)``
      seconds (capped); after ``dial_retry_budget`` consecutive
      timeouts the peer is dropped from the routing table.  Any message
      later received from it resets the slate (it proved liveness).
      This is what keeps crash/restart churn from degenerating into a
      redial storm.
    * **liveness pings** — peers that miss a Pong deadline are evicted
      from the peer set instead of being silently retained.
    * **peer scoring with a ban list** — protocol breaches and invalid
      blocks cost ``penalty_*`` points; at ``ban_threshold`` the peer is
      disconnected, de-routed, and refused for ``ban_seconds``.
    * **gossip degradation** — periodic head re-announcement and a
      bounded pending-transaction re-relay (driven by the network's
      heal loop) so gossip converges under sustained loss.
    """

    dial_timeout: float = 10.0
    dial_backoff_base: float = 30.0
    dial_backoff_cap: float = 960.0
    dial_retry_budget: int = 6
    ping_timeout: float = 10.0
    ban_threshold: float = -10.0
    ban_seconds: float = 600.0
    penalty_invalid_block: float = -10.0
    penalty_breach: float = -10.0
    penalty_incompatible: float = -4.0
    penalty_ping_timeout: float = -1.0
    tx_rebroadcast_limit: int = 16

    def __post_init__(self) -> None:
        if self.dial_timeout <= 0 or self.ping_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.dial_backoff_base <= 0 or self.dial_backoff_cap < self.dial_backoff_base:
            raise ValueError("need 0 < backoff_base <= backoff_cap")
        if self.dial_retry_budget < 1:
            raise ValueError("dial_retry_budget must be >= 1")
        if self.ban_threshold >= 0 or self.ban_seconds <= 0:
            raise ValueError("ban_threshold must be negative, ban_seconds positive")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ResiliencePolicy":
        return cls(**payload)


class FullNode:
    """One participant in the simulated peer-to-peer network."""

    def __init__(
        self,
        name: str,
        chain: Blockchain,
        max_peers: int = 25,
        region: str = "eu",
        mining_hashrate: float = 0.0,
        coinbase: Optional[Address] = None,
        rng_seed: Optional[int] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> None:
        self.name = name
        self.chain = chain
        self.max_peers = max_peers
        self.region = region
        # Seed derives from the name via a stable digest, NOT hash():
        # Python's per-process string-hash randomization would make every
        # simulation run unique, killing reproducibility.
        self.rng = random.Random(
            rng_seed if rng_seed is not None else zlib.crc32(name.encode("utf-8"))
        )

        self.network: Optional["Network"] = None
        self.online = True
        self.peers: Set[str] = set()
        self.routing = RoutingTable(name)
        self.mempool = Mempool(chain.config)
        self.seen_blocks = SeenCache()
        self.seen_txs = SeenCache()
        #: Parent hash -> request time.  A batch of N orphans costs one
        #: ancestor request instead of N (which would amplify 33x per
        #: round-trip and melt the simulator); entries expire so a lost
        #: response (peer disconnected mid-sync) retries instead of
        #: wedging the ancestor walk forever.
        self._requested_parents: Dict[bytes, float] = {}

        self.mining_hashrate = mining_hashrate
        self.coinbase = coinbase or Address.zero()
        self._mining_event = None

        #: ``None`` keeps the exact legacy behaviour; chaos runs pass a
        #: :class:`ResiliencePolicy` to enable dial backoff, liveness
        #: pings, and peer scoring.
        self.resilience = resilience
        #: peer -> time the outstanding dial was sent.
        self._dial_pending: Dict[str, float] = {}
        #: peer -> consecutive dial timeouts.
        self._dial_failures: Dict[str, int] = {}
        #: peer -> earliest time we may dial it again.
        self._dial_blocked_until: Dict[str, float] = {}
        #: peer -> time the outstanding ping was sent.
        self._ping_pending: Dict[str, float] = {}
        #: peer -> accumulated misbehaviour score (<= 0).
        self._peer_scores: Dict[str, float] = {}
        #: peer -> time its ban lapses.
        self._banned_until: Dict[str, float] = {}

        # Telemetry the experiments read.  Slot-backed struct-of-arrays
        # counters: the hot paths bump fixed slots, while readers keep
        # the mapping interface (``node.stats["blocks_mined"]``).
        self.stats = NodeStats()

    # -- identity ------------------------------------------------------------

    @property
    def config(self) -> ChainConfig:
        return self.chain.config

    @property
    def network_name(self) -> str:
        return self.chain.config.name

    def fork_block_hash(self) -> Optional[Hash32]:
        """Canonical hash at the DAO fork height (None below it)."""
        if self.chain.height < self.config.dao_fork_block:
            return None
        return self.chain.canonical_hash(self.config.dao_fork_block)

    def status_message(self) -> Status:
        return Status(
            sender_id=self.name,
            protocol_version=PROTOCOL_VERSION,
            network_name=self.network_name,
            genesis_hash=self.chain.genesis.block_hash,
            head_hash=self.chain.head.block_hash,
            total_difficulty=self.chain.total_difficulty,
            fork_block_hash=self.fork_block_hash(),
        )

    # -- connectivity ----------------------------------------------------------

    def compatible_with(self, status: Status) -> Tuple[bool, str]:
        """Apply the handshake admission rules to a peer's Status."""
        if status.protocol_version != PROTOCOL_VERSION:
            return False, DisconnectReason.BREACH_OF_PROTOCOL
        if status.genesis_hash != self.chain.genesis.block_hash:
            return False, DisconnectReason.INCOMPATIBLE_FORK
        mine = self.fork_block_hash()
        theirs = status.fork_block_hash
        if mine is not None and theirs is not None and mine != theirs:
            return False, DisconnectReason.INCOMPATIBLE_FORK
        return True, ""

    def dial(self, peer_name: str) -> None:
        """Initiate a connection (send our Status).

        With a :class:`ResiliencePolicy`, dials are bookkept: a peer with
        an outstanding dial, an unexpired backoff, or an active ban is
        skipped, and every dial arms a timeout check.  Without a policy
        this is the legacy fire-and-forget send.
        """
        if not self.online or peer_name == self.name:
            return
        if peer_name in self.peers or len(self.peers) >= self.max_peers:
            return
        policy = self.resilience
        if policy is not None:
            now = self._now()
            if (
                peer_name in self._dial_pending
                or now < self._dial_blocked_until.get(peer_name, 0.0)
                or now < self._banned_until.get(peer_name, 0.0)
            ):
                return
            self._dial_pending[peer_name] = now
            self.stats.dials_started += 1
            if self.network is not None:
                self.network.sim.schedule(
                    policy.dial_timeout, self._check_dial, peer_name, now
                )
        self._send(peer_name, self.status_message())

    def _check_dial(self, peer_name: str, dialed_at: float) -> None:
        """Dial-timeout bookkeeping: back off, and eventually give up.

        Fires ``dial_timeout`` seconds after the dial.  If the handshake
        completed (or the dial entry was superseded) this is a no-op;
        otherwise the peer earns exponential backoff —
        ``backoff_base * 2^(failures-1)`` capped at ``backoff_cap`` —
        and, once the retry budget is spent, removal from the routing
        table so discovery stops re-suggesting a corpse.
        """
        policy = self.resilience
        if policy is None or not self.online:
            return
        if self._dial_pending.get(peer_name) != dialed_at:
            return
        del self._dial_pending[peer_name]
        if peer_name in self.peers:
            return
        self.stats.dials_timed_out += 1
        failures = self._dial_failures.get(peer_name, 0) + 1
        self._dial_failures[peer_name] = failures
        backoff = min(
            policy.dial_backoff_base * (2 ** (failures - 1)),
            policy.dial_backoff_cap,
        )
        self._dial_blocked_until[peer_name] = self._now() + backoff
        if failures >= policy.dial_retry_budget:
            self.routing.remove(peer_name)

    def _note_alive(self, peer_name: str) -> None:
        """Any inbound message proves liveness: reset the dial slate."""
        self._dial_pending.pop(peer_name, None)
        self._dial_failures.pop(peer_name, None)
        self._dial_blocked_until.pop(peer_name, None)

    def disconnect(self, peer_name: str, reason: str) -> None:
        if peer_name in self.peers:
            self.peers.discard(peer_name)
            self._send(peer_name, Disconnect(sender_id=self.name, reason=reason))

    def drop_all_peers(self, reason: str = DisconnectReason.CLIENT_QUITTING) -> None:
        for peer_name in sorted(self.peers):
            self.disconnect(peer_name, reason)

    # -- lifecycle ---------------------------------------------------------------

    def go_offline(self) -> None:
        self.online = False
        self.stop_mining()
        self.peers.clear()
        # In-flight dial/ping state dies with the process; scores and
        # bans survive a bounce (they model the operator's node database).
        self._dial_pending.clear()
        self._ping_pending.clear()

    def go_online(self) -> None:
        self.online = True

    def upgrade(self, new_config: ChainConfig) -> None:
        """Adopt a new protocol version (take — or refuse — a fork).

        The block database is retained; only the rules change.  Existing
        peers are re-evaluated at the next fork-boundary import, exactly
        like restarting geth with different fork flags.
        """
        self.chain.config = new_config
        self.mempool.config = new_config
        if self.network is not None:
            self.network.note_upgrade(self.name)

    # -- mining --------------------------------------------------------------

    def start_mining(self) -> None:
        if self.mining_hashrate <= 0 or self.network is None or not self.online:
            return
        self.stop_mining()
        interval = self.network.sim_rng.expovariate(
            self.mining_hashrate / self.chain.head.difficulty
        )
        self._mining_event = self.network.sim.schedule(interval, self._mine_block)

    def stop_mining(self) -> None:
        if self._mining_event is not None:
            self._mining_event.cancel()
            self._mining_event = None

    def _mine_block(self) -> None:
        if not self.online:
            return
        parent = self.chain.head
        timestamp = max(int(self.network.sim.now), parent.timestamp + 1)
        difficulty = self.config.compute_difficulty(
            parent.difficulty, parent.timestamp, timestamp, parent.number + 1
        )

        # Reference any eligible orphaned siblings as uncles: the losing
        # side of a transient fork still earns, which is why real miners
        # always include them (and why our uncle-rate experiment works).
        ommers = tuple(self.chain.candidate_ommers())

        transactions: Tuple[SignedTransaction, ...] = ()
        state_root = parent.header.state_root
        if self.chain.execute_transactions:
            parent_state = self.chain.state_at(parent.block_hash)
            scratch = parent_state.fork()
            selected = self.mempool.select_for_block(
                parent_state, parent.number + 1, parent.header.gas_limit
            )
            transactions = tuple(selected)
            trial = Block(
                header=BlockHeader(
                    parent_hash=parent.block_hash,
                    number=parent.number + 1,
                    timestamp=timestamp,
                    difficulty=difficulty,
                    coinbase=self.coinbase,
                    state_root=Hash32.zero(),
                    tx_root=transactions_root(transactions),
                    gas_limit=parent.header.gas_limit,
                    gas_used=0,
                    ommers_hash=ommers_root(ommers),
                ),
                transactions=transactions,
                ommers=ommers,
            )
            apply_block(scratch, trial, self.config, self.chain.irregular_transfers)
            state_root = scratch.state_root

        block = Block(
            header=BlockHeader(
                parent_hash=parent.block_hash,
                number=parent.number + 1,
                timestamp=timestamp,
                difficulty=difficulty,
                coinbase=self.coinbase,
                state_root=state_root,
                tx_root=transactions_root(transactions),
                gas_limit=parent.header.gas_limit,
                gas_used=0,
                nonce=self.rng.getrandbits(64),
                extra_data=self.config.dao_extra_data(parent.number + 1) or b"",
                ommers_hash=ommers_root(ommers),
            ),
            transactions=transactions,
            ommers=ommers,
        )
        self.stats.blocks_mined += 1
        if self.network is not None and self.network.obs is not None:
            if self.network._ctr_blk_produced is not None:
                self.network._ctr_blk_produced.inc()
            if self.network._tracer is not None:
                self.network._tracer.emit(
                    self.network.sim.now,
                    "block.produced",
                    miner=self.name,
                    number=block.number,
                    hash=block.block_hash.hex(),
                )
        self._adopt_block(block, origin=None)
        self.start_mining()  # schedule the next attempt from the new head

    # -- block handling ------------------------------------------------------

    def _adopt_block(
        self, block: Block, origin: Optional[str], request_missing: bool = True
    ) -> str:
        """Import a block (mined or received) and relay on success.

        Returns the import status.  ``request_missing=False`` suppresses
        the orphan follow-up (batch handlers issue one request per batch).
        """
        self.seen_blocks.add(block.block_hash)
        result = self.chain.import_block(block)
        if self.network is not None and self.network.obs is not None:
            self._observe_import(block, result)
        if result.status == "imported":
            self.stats.blocks_imported += 1
            self.mempool.remove_included(block.transactions)
            self._relay_block(block, exclude=origin)
            if self.chain.head.block_hash == block.block_hash:
                # Head advanced: restart the miner against the new parent.
                if self._mining_event is not None:
                    self.start_mining()
        elif result.status == "orphan" and origin is not None and request_missing:
            self._request_ancestor(origin, block.parent_hash)
        elif result.status == "invalid" and origin is not None:
            # A peer feeding us consensus-invalid blocks is either broken
            # or on the other side of a hard fork; drop it.  This is the
            # disconnection cascade that empties the minority network's
            # peer lists at the fork moment.
            if result.reason == "dao-extra-data":
                self.stats.disconnects_incompatible += 1
                self.disconnect(origin, DisconnectReason.INCOMPATIBLE_FORK)
                self._punish(origin, "penalty_incompatible")
            else:
                self.disconnect(origin, DisconnectReason.BREACH_OF_PROTOCOL)
                self._punish(origin, "penalty_invalid_block")
        return result.status

    def _observe_import(self, block: Block, result) -> None:
        """Metrics + trace events for one import (obs-enabled runs only)."""
        net = self.network
        if result.status == "imported":
            if net._ctr_blk_imported is not None:
                net._ctr_blk_imported.inc()
            if result.reorged and net._ctr_reorgs is not None:
                net._ctr_reorgs.inc()
        elif result.status == "orphan":
            if net._ctr_blk_orphaned is not None:
                net._ctr_blk_orphaned.inc()
        tracer = net._tracer
        if tracer is None:
            return
        now = net.sim.now
        if result.status == "imported":
            tracer.emit(
                now,
                "block.imported",
                node=self.name,
                number=block.number,
                hash=block.block_hash.hex(),
                reorg=bool(result.reorged),
            )
            if result.reorged:
                tracer.emit(
                    now,
                    "reorg",
                    node=self.name,
                    head=block.block_hash.hex(),
                    number=block.number,
                )
        elif result.status == "orphan":
            tracer.emit(
                now,
                "block.orphaned",
                node=self.name,
                number=block.number,
                hash=block.block_hash.hex(),
            )

    #: Seconds before an unanswered ancestor request may be retried.
    ANCESTOR_RETRY_SECONDS = 20.0

    def _request_ancestor(self, origin: str, parent_hash: Hash32) -> None:
        """Pull a missing ancestor, at most once per hash per retry window."""
        now = self.network.sim.now if self.network is not None else 0.0
        key = bytes(parent_hash)
        last = self._requested_parents.get(key)
        if last is not None and now - last < self.ANCESTOR_RETRY_SECONDS:
            return
        self._requested_parents[key] = now
        if len(self._requested_parents) > 50_000:
            self._requested_parents.clear()
        self._send(
            origin, GetBlocks(sender_id=self.name, hashes=(parent_hash,))
        )

    def _relay_block(self, block: Block, exclude: Optional[str]) -> None:
        # Sorted so simulations replay identically regardless of Python's
        # per-process set-hash randomization.  The push/announce split
        # draws from ``self.rng`` before any network check, exactly as
        # the per-send loop did, so detached nodes keep the same RNG
        # trajectory.  Each tier goes out as one delivery wave.
        targets = sorted(self.peers)
        if exclude is not None:
            try:
                targets.remove(exclude)
            except ValueError:
                pass
        push, announce = split_push_announce(targets, self.rng)
        full = NewBlock(
            sender_id=self.name,
            block=block,
            total_difficulty=self.chain.total_difficulty_of(block.block_hash)
            or 0,
        )
        network = self.network
        if network is not None:
            network.send_wave(self.name, push, full)
        if announce:
            hashes_msg = NewBlockHashes(
                sender_id=self.name, hashes=(block.block_hash,)
            )
            if network is not None:
                network.send_wave(self.name, announce, hashes_msg)

    # -- transactions ---------------------------------------------------------

    def submit_transaction(self, tx: SignedTransaction) -> bool:
        """Entry point for local users (wallets) — validate and gossip."""
        state = (
            self.chain.head_state() if self.chain.execute_transactions else None
        )
        result = self.mempool.add(tx, state, self.chain.height + 1)
        self.seen_txs.add(bytes(tx.tx_hash))
        if result.admitted:
            self.stats.txs_admitted += 1
            self._relay_transactions((tx,), exclude=None)
            return True
        return False

    def _relay_transactions(
        self, txs: Tuple[SignedTransaction, ...], exclude: Optional[str]
    ) -> None:
        if not txs:
            return
        message = Transactions(sender_id=self.name, transactions=txs)
        network = self.network
        if network is None:
            return
        if exclude is None:
            targets = sorted(self.peers)
        else:
            targets = [p for p in sorted(self.peers) if p != exclude]
        network.send_wave(self.name, targets, message)

    # -- message dispatch ---------------------------------------------------------

    def receive(self, message: Message) -> None:
        """Transport delivery point; dispatches on message type.

        The hot path replaces the seed's nine-branch ``isinstance``
        ladder with one exact-type dict probe (messages are final
        dataclasses, so ``type(message)`` is the ladder's answer); a
        subclassed message — none exist in the repo, but the contract
        allows them — falls back to the ladder.  Handler order and
        side effects are identical to the seed body, kept verbatim as
        :class:`repro.perf.reference.ReferenceNode`'s ``receive``.
        """
        if not self.online:
            return
        sender = message.sender_id
        if self.resilience is not None:
            if self._now() < self._banned_until.get(sender, 0.0):
                return  # banned peers get silence, not service
            self._note_alive(sender)
            if isinstance(message, Ping):
                self._send(sender, Pong(sender_id=self.name))
                return
            if isinstance(message, Pong):
                self._ping_pending.pop(sender, None)
                return
        self.routing.observe(sender)
        handler = _DISPATCH_GET(type(message))
        if handler is not None:
            handler(self, message)
        else:
            self._dispatch_ladder(message)

    def _dispatch_ladder(self, message: Message) -> None:
        """The seed dispatch ladder (the fast path's subclassed-message
        fallback, and the reference node's only dispatch)."""
        if isinstance(message, Status):
            self._on_status(message)
        elif isinstance(message, Disconnect):
            self._on_disconnect(message)
        elif isinstance(message, NewBlock):
            self._on_new_block(message)
        elif isinstance(message, NewBlockHashes):
            self._on_new_block_hashes(message)
        elif isinstance(message, GetBlocks):
            self._on_get_blocks(message)
        elif isinstance(message, Blocks):
            self._on_blocks(message)
        elif isinstance(message, Transactions):
            self._on_transactions(message)
        elif isinstance(message, FindNode):
            self._on_find_node(message)
        elif isinstance(message, Neighbors):
            self._on_neighbors(message)

    def _on_disconnect(self, message: Disconnect) -> None:
        self.peers.discard(message.sender_id)
        if message.reason == DisconnectReason.INCOMPATIBLE_FORK:
            self.stats.disconnects_incompatible += 1

    def _on_find_node(self, message: FindNode) -> None:
        self._send(
            message.sender_id,
            Neighbors(
                sender_id=self.name,
                node_ids=tuple(self.routing.closest(message.target)),
            ),
        )

    def _on_neighbors(self, message: Neighbors) -> None:
        observe = self.routing.observe
        for node_id in message.node_ids:
            observe(node_id)

    def _on_status(self, status: Status) -> None:
        sender = status.sender_id
        already_connected = sender in self.peers
        compatible, reason = self.compatible_with(status)
        if not compatible:
            self.stats.handshakes_refused += 1
            self.peers.discard(sender)
            self._send(sender, Disconnect(sender_id=self.name, reason=reason))
            return
        if already_connected:
            return
        if len(self.peers) >= self.max_peers:
            self._send(
                sender,
                Disconnect(
                    sender_id=self.name, reason=DisconnectReason.TOO_MANY_PEERS
                ),
            )
            return
        self.peers.add(sender)
        self._send(sender, self.status_message())
        # If the peer is ahead, pull toward their head.
        if status.total_difficulty > self.chain.total_difficulty:
            self._send(
                sender, GetBlocks(sender_id=self.name, hashes=(status.head_hash,))
            )

    def _on_blocks(self, message: Blocks) -> None:
        """Import a served batch (ascending order), then follow up once.

        Batches arrive oldest-first, so later blocks usually find their
        parents in the same batch; if the whole batch is still orphaned we
        are mid ancestor-walk and ask for the first block's parent only.

        Most served blocks are already known or still orphaned (ancestor
        walks re-serve descendant runs), and ``import_block`` settles both
        with dict probes before any validation — so on the obs-disabled
        path those verdicts are pre-checked inline and only blocks with a
        known parent pay the full import machinery.  Outcome-identical to
        :meth:`_on_blocks_observed`: the pre-check reproduces exactly the
        "known" and "unknown-parent" early returns of
        :meth:`~repro.chain.chainstore.Blockchain.import_block`.
        """
        net = self.network
        if net is None or net.obs is not None:
            # Orphan/import trace events must still fire per block.
            self._on_blocks_observed(message)
            return
        sender = message.sender_id
        block_index = self.chain.block_index
        seen_add = self.seen_blocks.add
        first_orphan: Optional[Block] = None
        for block in message.blocks:
            header = block.header
            block_hash = header.block_hash
            seen_add(block_hash)
            if block_hash in block_index:
                continue  # "known"
            if header.parent_hash not in block_index:
                if first_orphan is None:
                    first_orphan = block
                continue  # "orphan" (unknown parent)
            status = self._adopt_block(
                block, origin=sender, request_missing=False
            )
            if status == "orphan" and first_orphan is None:
                first_orphan = block  # parent known but its state pruned
        if first_orphan is not None:
            self._request_ancestor(sender, first_orphan.parent_hash)

    def _on_blocks_observed(self, message: Blocks) -> None:
        """The seed-state :meth:`_on_blocks` body, verbatim: every block
        through :meth:`_adopt_block`.  The obs-enabled fallback of the
        fast path, and :class:`repro.perf.reference.ReferenceNode`'s
        ``_on_blocks``."""
        first_orphan: Optional[Block] = None
        for block in message.blocks:
            status = self._adopt_block(
                block, origin=message.sender_id, request_missing=False
            )
            if status == "orphan" and first_orphan is None:
                first_orphan = block
        if first_orphan is not None:
            self._request_ancestor(message.sender_id, first_orphan.parent_hash)

    def _on_new_block(self, message: NewBlock) -> None:
        block = message.block
        block_hash = block.header.block_hash
        if block_hash in self.seen_blocks:
            return
        net = self.network
        if net is None or net.obs is not None:
            self._adopt_block(block, origin=message.sender_id)
            return
        # Obs-disabled: settle "known" and "unknown-parent orphan" with
        # dict probes (exactly import_block's own early returns) before
        # paying the _adopt_block/import_block call chain.
        block_index = self.chain.block_index
        if block_hash in block_index:
            self.seen_blocks.add(block_hash)
            return
        if block.header.parent_hash not in block_index:
            self.seen_blocks.add(block_hash)
            self._request_ancestor(message.sender_id, block.parent_hash)
            return
        self._adopt_block(block, origin=message.sender_id)

    def _on_new_block_hashes(self, message: NewBlockHashes) -> None:
        # Announcements are the highest-volume message and almost always
        # already seen: probe the dedup set and block index directly
        # (identical membership semantics — Hash32 hashes as its bytes).
        hashes = message.hashes
        seen = self.seen_blocks._seen
        block_index = self.chain.block_index
        if len(hashes) == 1:
            # The dominant shape by far (block announcements carry one
            # hash): test membership directly instead of building a
            # generator plus a filtered tuple for a 0/1-element result.
            head = hashes[0]
            if head in seen or head in block_index:
                return
            unknown = hashes
        else:
            unknown = tuple(
                h for h in hashes if h not in seen and h not in block_index
            )
        if unknown:
            self._send(
                message.sender_id,
                GetBlocks(sender_id=self.name, hashes=unknown),
            )

    def _on_get_blocks(self, message: GetBlocks) -> None:
        # The descendant walk below re-reads the canonical and block
        # indices once per served block; going through the dict aliases
        # instead of block_by_hash/block_by_number halves the call count
        # on the busiest sync path.
        chain = self.chain
        blocks_get = chain.block_index.get
        canonical_get = chain.canonical_index.get
        found: List[Block] = []
        append = found.append
        for block_hash in message.hashes:
            block = blocks_get(block_hash)
            if block is not None:
                append(block)
                # Serve a short run of descendants to accelerate catch-up.
                cursor = block.header
                for _ in range(31):
                    nxt_hash = canonical_get(cursor.number + 1)
                    nxt = blocks_get(nxt_hash) if nxt_hash else None
                    if nxt is None or nxt.header.parent_hash != cursor.block_hash:
                        break
                    append(nxt)
                    cursor = nxt.header
        if found:
            self._send(
                message.sender_id,
                Blocks(sender_id=self.name, blocks=tuple(found)),
            )

    def _on_transactions(self, message: Transactions) -> None:
        fresh: List[SignedTransaction] = []
        state = (
            self.chain.head_state() if self.chain.execute_transactions else None
        )
        for tx in message.transactions:
            if not self.seen_txs.add(bytes(tx.tx_hash)):
                continue
            result = self.mempool.add(tx, state, self.chain.height + 1)
            if result.admitted:
                self.stats.txs_admitted += 1
                fresh.append(tx)
        if fresh:
            self._relay_transactions(tuple(fresh), exclude=message.sender_id)

    # -- resilience ----------------------------------------------------------

    def _now(self) -> float:
        return self.network.sim.now if self.network is not None else 0.0

    def _punish(self, peer_name: str, penalty_key: str) -> None:
        """Dock a peer's score; at the ban threshold, cut it loose.

        Banning disconnects (``USELESS_PEER``), drops the peer from the
        routing table, and refuses its messages and our dials to it for
        ``ban_seconds``.  No-op without a policy.
        """
        policy = self.resilience
        if policy is None:
            return
        score = self._peer_scores.get(peer_name, 0.0) + getattr(
            policy, penalty_key
        )
        self._peer_scores[peer_name] = score
        if score <= policy.ban_threshold:
            self.disconnect(peer_name, DisconnectReason.USELESS_PEER)
            self.peers.discard(peer_name)
            self.routing.remove(peer_name)
            self._banned_until[peer_name] = self._now() + policy.ban_seconds
            self._peer_scores.pop(peer_name, None)
            self.stats.peers_banned += 1

    def ping_peers(self) -> None:
        """Liveness sweep: ping every peer, arm an eviction deadline.

        Called by the network's liveness loop.  A peer that already has
        an outstanding ping is not pinged again — its pending check will
        evict it.  No-op without a policy (legacy nodes keep crashed
        peers forever, as the seed behaviour did).
        """
        policy = self.resilience
        if policy is None or not self.online or self.network is None:
            return
        now = self._now()
        for peer_name in sorted(self.peers):
            if peer_name in self._ping_pending:
                continue
            self._ping_pending[peer_name] = now
            self._send(peer_name, Ping(sender_id=self.name))
            self.network.sim.schedule(
                policy.ping_timeout, self._check_ping, peer_name, now
            )

    def _check_ping(self, peer_name: str, pinged_at: float) -> None:
        """Evict a peer whose Pong never came back."""
        policy = self.resilience
        if policy is None or not self.online:
            return
        if self._ping_pending.get(peer_name) != pinged_at:
            return
        del self._ping_pending[peer_name]
        if peer_name in self.peers:
            self.peers.discard(peer_name)
            self.stats.peers_evicted_unresponsive += 1
            self._punish(peer_name, "penalty_ping_timeout")

    def announce_head(self) -> None:
        """Re-announce the head hash to every peer (gossip repair).

        Peers that missed the original push/announce — the message was
        lost, or they were mid-crash — pull the body via ``GetBlocks``.
        Driven by the network's heal loop; no-op without a policy.
        """
        if self.resilience is None or not self.online or not self.peers:
            return
        message = NewBlockHashes(
            sender_id=self.name, hashes=(self.chain.head.block_hash,)
        )
        network = self.network
        if network is not None:
            network.send_wave(self.name, sorted(self.peers), message)
        self.stats.head_reannounces += 1

    def rebroadcast_transactions(self) -> None:
        """Re-relay a bounded, deterministic slice of the mempool.

        Degraded-mode gossip under loss: bounded by
        ``tx_rebroadcast_limit`` so healing chatter cannot melt the
        simulator, ordered by tx hash so replays are identical.
        """
        policy = self.resilience
        if policy is None or not self.online or not self.peers:
            return
        hashes = sorted(self.mempool.all_hashes(), key=bytes)
        txs = tuple(
            tx
            for tx in (
                self.mempool.get(h)
                for h in hashes[: policy.tx_rebroadcast_limit]
            )
            if tx is not None
        )
        if txs:
            self._relay_transactions(txs, exclude=None)

    # -- transport ------------------------------------------------------------

    def _send(self, peer_name: str, message: Message) -> None:
        if self.network is not None:
            self.network.send(self.name, peer_name, message)


#: Exact-type dispatch table for :meth:`FullNode.receive`.  Keys are the
#: final message classes; values are the unbound handler functions.  The
#: resilience-gated types (Ping/Pong) are deliberately absent — they are
#: consumed by the preamble when a policy is armed and ignored otherwise,
#: exactly as the ladder ignored them.
_DISPATCH = {
    Status: FullNode._on_status,
    Disconnect: FullNode._on_disconnect,
    NewBlock: FullNode._on_new_block,
    NewBlockHashes: FullNode._on_new_block_hashes,
    GetBlocks: FullNode._on_get_blocks,
    Blocks: FullNode._on_blocks,
    Transactions: FullNode._on_transactions,
    FindNode: FullNode._on_find_node,
    Neighbors: FullNode._on_neighbors,
}
_DISPATCH_GET = _DISPATCH.get
