"""Mid-horizon simulator checkpoints: pause a fork run, resume bit-exact.

A 270-day reconstruction mines ~1.7M blocks per chain in one
:meth:`~repro.sim.engine.ForkSimulation.run` call.  The chunked sweep
harness (§10) can already split a *grid* of runs into resumable chunks,
but a single horizon was all-or-nothing: a preempted worker lost the
whole run.  :class:`ForkSimCheckpoint` closes that gap by snapshotting
everything the day loop carries across iterations:

* the chain tips (number, timestamp, wall clock, difficulty) and the
  **full Mersenne Twister state** of each producer's RNG,
* the trace columns mined so far (packed ``array('q')`` snapshots),
* the lagged allocator's current hashpower split,
* the per-day hashrate ledger.

Everything else the loop consumes — price processes, hashpower supply,
pool landscapes, transaction workloads — is a pure function of the
config seed and is recomputed identically on resume, so the checkpoint
stays small (the trace columns dominate: ~48 bytes/block).

The determinism contract, pinned by ``tests/test_sim_checkpoint.py``:
running days ``[0, k)``, checkpointing, and resuming through ``[k,
days)`` yields a :meth:`~repro.sim.engine.ForkSimResult.digest`
byte-identical to the single-shot run — through any number of chunk
boundaries, and through a JSON round-trip of the checkpoint itself.

The harness's ``simulate-chunk`` jobs hand checkpoints to each other
through the result cache *as objects*: pickle writes the packed columns
as raw bytes.  :meth:`ForkSimCheckpoint.to_dict` / ``from_dict`` are the
JSON wire format (base64 columns) for anything outside that cache, and
:meth:`ForkSimCheckpoint.digest` fingerprints that canonical form.
Resuming copies the snapshot's columns, so one checkpoint can seed any
number of independent resumes.
"""

from __future__ import annotations

import base64
import hashlib
import json
import sys
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .blockprod import BlockProducer, ChainTrace

__all__ = [
    "CHECKPOINT_VERSION",
    "ProducerState",
    "TraceSnapshot",
    "ForkSimCheckpoint",
]

#: Bump on any change to the serialized layout; ``from_dict`` rejects
#: mismatches instead of guessing.
CHECKPOINT_VERSION = 1

_COLUMNS = (
    "numbers",
    "timestamps",
    "difficulties",
    "miner_ids",
    "tx_counts",
    "contract_tx_counts",
)


def _pack_column(column: array) -> str:
    """Base64 of the column's int64 payload, normalized little-endian."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        column = array("q", column)
        column.byteswap()
    return base64.b64encode(column.tobytes()).decode("ascii")


def _unpack_column(payload: str) -> array:
    column = array("q")
    column.frombytes(base64.b64decode(payload.encode("ascii")))
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        column.byteswap()
    return column


@dataclass
class ProducerState:
    """One :class:`~repro.sim.blockprod.BlockProducer`'s resumable state.

    The ``(number, timestamp, clock, difficulty)`` tip plus the full RNG
    state (``random.Random.getstate()``: version, 625 Mersenne words,
    and the Gaussian carry).  The producer's ``_solo_memo`` is a lazily
    rebuilt cache keyed by list identity, so it is deliberately *not*
    part of the state — a resumed producer re-warms it on first use
    with identical results.
    """

    number: int
    timestamp: int
    clock: int
    difficulty: int
    rng_state: Tuple[int, Tuple[int, ...], Optional[float]]

    @classmethod
    def capture(cls, producer: BlockProducer) -> "ProducerState":
        return cls(
            number=producer.number,
            timestamp=producer.timestamp,
            clock=producer.clock,
            difficulty=producer.difficulty,
            rng_state=producer.rng.getstate(),
        )

    def apply(self, producer: BlockProducer) -> None:
        """Overwrite a freshly constructed producer's tip and RNG."""
        producer.number = self.number
        producer.timestamp = self.timestamp
        producer.clock = self.clock
        producer.difficulty = self.difficulty
        producer.rng.setstate(self.rng_state)

    def to_dict(self) -> Dict[str, Any]:
        version, words, gauss_next = self.rng_state
        return {
            "number": self.number,
            "timestamp": self.timestamp,
            "clock": self.clock,
            "difficulty": self.difficulty,
            "rng_state": [version, list(words), gauss_next],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ProducerState":
        version, words, gauss_next = payload["rng_state"]
        return cls(
            number=payload["number"],
            timestamp=payload["timestamp"],
            clock=payload["clock"],
            difficulty=payload["difficulty"],
            rng_state=(version, tuple(words), gauss_next),
        )


@dataclass
class TraceSnapshot:
    """Deep copy of one :class:`~repro.sim.blockprod.ChainTrace`.

    Columns are copied at capture *and* at restore so neither the
    checkpoint nor a resumed run can mutate the other's arrays — a
    checkpoint can seed any number of independent resumes.
    """

    chain: str
    columns: Dict[str, array]
    miner_labels: List[str]

    @classmethod
    def capture(cls, trace: ChainTrace) -> "TraceSnapshot":
        return cls(
            chain=trace.chain,
            columns={
                name: array("q", getattr(trace, name)) for name in _COLUMNS
            },
            miner_labels=list(trace.miner_labels),
        )

    def restore(self) -> ChainTrace:
        trace = ChainTrace(self.chain)
        for name in _COLUMNS:
            setattr(trace, name, array("q", self.columns[name]))
        trace.miner_labels = list(self.miner_labels)
        trace._label_index = {
            label: index for index, label in enumerate(trace.miner_labels)
        }
        return trace

    def to_dict(self) -> Dict[str, Any]:
        return {
            "chain": self.chain,
            "columns": {
                name: _pack_column(column)
                for name, column in self.columns.items()
            },
            "miner_labels": self.miner_labels,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceSnapshot":
        return cls(
            chain=payload["chain"],
            columns={
                name: _unpack_column(payload["columns"][name])
                for name in _COLUMNS
            },
            miner_labels=list(payload["miner_labels"]),
        )


@dataclass
class ForkSimCheckpoint:
    """Everything :meth:`ForkSimulation.run` needs to pick up at day ``day``.

    ``config`` is the owning :meth:`ForkSimConfig.to_dict` snapshot;
    resume refuses a checkpoint taken under a different configuration
    (same-seed purity of the recomputed inputs is what makes resumption
    exact, so a mismatched config would silently diverge).
    """

    config: Dict[str, Any]
    #: Next day index to simulate (days ``[0, day)`` are already mined).
    day: int
    fork_number: int
    fork_timestamp: int
    producers: Dict[str, ProducerState]
    traces: Dict[str, TraceSnapshot]
    #: The lagged allocator's current per-chain hashrate split.
    allocation: Dict[str, float]
    #: Per-chain daily hashrate mined so far (``day`` entries each).
    daily_hashrate: Dict[str, List[float]]
    version: int = CHECKPOINT_VERSION

    @classmethod
    def capture(
        cls,
        config: Any,
        day: int,
        fork_number: int,
        fork_timestamp: int,
        producers: Dict[str, BlockProducer],
        traces: Dict[str, ChainTrace],
        allocation: Dict[str, float],
        daily_hashrate: Dict[str, List[float]],
    ) -> "ForkSimCheckpoint":
        return cls(
            config=config.to_dict(),
            day=day,
            fork_number=fork_number,
            fork_timestamp=fork_timestamp,
            producers={
                chain: ProducerState.capture(producer)
                for chain, producer in producers.items()
            },
            traces={
                chain: TraceSnapshot.capture(trace)
                for chain, trace in traces.items()
            },
            allocation=dict(allocation),
            daily_hashrate={
                chain: list(values)
                for chain, values in daily_hashrate.items()
            },
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload (round-trips exactly through ``from_dict``).

        Floats survive via ``repr``-based JSON serialization (shortest
        round-trip), int64 columns via base64, RNG words as plain ints —
        nothing lossy anywhere, which the resume-digest tests depend on.
        """
        return {
            "version": self.version,
            "config": self.config,
            "day": self.day,
            "fork_number": self.fork_number,
            "fork_timestamp": self.fork_timestamp,
            "producers": {
                chain: state.to_dict()
                for chain, state in self.producers.items()
            },
            "traces": {
                chain: snapshot.to_dict()
                for chain, snapshot in self.traces.items()
            },
            "allocation": self.allocation,
            "daily_hashrate": self.daily_hashrate,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ForkSimCheckpoint":
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        return cls(
            config=payload["config"],
            day=payload["day"],
            fork_number=payload["fork_number"],
            fork_timestamp=payload["fork_timestamp"],
            producers={
                chain: ProducerState.from_dict(state)
                for chain, state in payload["producers"].items()
            },
            traces={
                chain: TraceSnapshot.from_dict(snapshot)
                for chain, snapshot in payload["traces"].items()
            },
            allocation=dict(payload["allocation"]),
            daily_hashrate={
                chain: list(values)
                for chain, values in payload["daily_hashrate"].items()
            },
            version=version,
        )

    def digest(self) -> str:
        """Fingerprint of the serialized checkpoint (ledger audit trail)."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
