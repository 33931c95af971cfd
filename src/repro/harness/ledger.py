"""The sweep ledger: durable per-chunk state for resumable sweeps.

A chunked sweep (:mod:`repro.harness.sweeprun`) is only as survivable as
the record of what already happened.  The ledger is that record: one
WAL-mode SQLite file (the :class:`repro.data.sqlitestore.SQLiteStore`
idiom, shared with :class:`repro.data.resultstore.ResultStore`) holding
one row per chunk with a small state machine::

    pending ──claim──▶ leased ──complete──▶ done
       ▲                  │
       │                  ├──fail (attempts left)──▶ pending
       │                  └──fail (exhausted)──────▶ quarantined
       └──lease expiry / release

Claims are atomic (``BEGIN IMMEDIATE`` serialises writers), carry a
**lease** with an expiry timestamp, and pick the lowest-``seq`` claimable
chunk of the lowest unfinished stage — so several processes pointed at
the same ledger directory cooperate without coordination: each claims a
disjoint chunk, a crashed claimant's lease lapses and the chunk returns
to the claimable pool, and stage barriers (``run-all`` waves) are
respected because a stage opens only once every earlier stage is
terminal.

A ``done`` row carries its chunk's canonical-JSON summary, written in
the same transaction that marks it ``done``: the row is the only record
of a finished chunk, so no crash can leave a summary and its state
disagreeing.  The combine step stitches those summaries in ``seq``
order.  Everything else in a row — lease timestamps, attempt counts —
is wall-clock bookkeeping outside the deterministic artifact surface.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..data.sqlitestore import SQLiteStore

__all__ = [
    "SweepLedger",
    "ChunkRow",
    "ChunkDef",
    "ClaimedChunk",
    "LedgerError",
    "LedgerMismatch",
    "LedgerNeedsResume",
    "CHUNK_STATES",
    "LEDGER_SCHEMA_VERSION",
]

#: Bump on any table/column change; files of any other version are
#: refused.  Version 2 holds each done chunk's summary in its row.
LEDGER_SCHEMA_VERSION = 2

#: Every state a chunk row may be in.
CHUNK_STATES = ("pending", "leased", "done", "quarantined")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    name  TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS chunks (
    chunk_id      TEXT PRIMARY KEY,     -- content address (sha-256 hex)
    seq           INTEGER NOT NULL,     -- canonical combine order
    stage         INTEGER NOT NULL,     -- barrier stage (run-all wave)
    label         TEXT NOT NULL,
    state         TEXT NOT NULL,        -- pending|leased|done|quarantined
    owner         TEXT,                 -- current/last lease holder
    lease_expires REAL,                 -- wall-clock expiry of the lease
    attempts      INTEGER NOT NULL DEFAULT 0,  -- execution attempts begun
    failures      INTEGER NOT NULL DEFAULT 0,  -- attempts that ended in error
    summary       TEXT,                 -- canonical-JSON summary (done only)
    error         TEXT,                 -- last failure detail
    updated_at    REAL NOT NULL,
    CHECK (state != 'done' OR summary IS NOT NULL)
);
CREATE INDEX IF NOT EXISTS chunks_by_state ON chunks (state, stage, seq);
"""

_CHUNK_COLUMNS = (
    "chunk_id", "seq", "stage", "label", "state", "owner", "lease_expires",
    "attempts", "failures", "summary", "error", "updated_at",
)


class LedgerError(RuntimeError):
    """Base class for ledger usage errors."""


class LedgerMismatch(LedgerError):
    """The ledger on disk belongs to a different sweep."""


class LedgerNeedsResume(LedgerError):
    """The ledger has prior progress; attach with ``resume=True``."""


class ChunkDef(NamedTuple):
    """What :meth:`SweepLedger.register` needs to know about a chunk."""

    chunk_id: str
    seq: int
    stage: int
    label: str


class ChunkRow(NamedTuple):
    """One persisted chunk record."""

    chunk_id: str
    seq: int
    stage: int
    label: str
    state: str
    owner: Optional[str]
    lease_expires: Optional[float]
    attempts: int
    failures: int
    summary: Optional[str]
    error: Optional[str]
    updated_at: float


class ClaimedChunk(NamedTuple):
    """A successful :meth:`SweepLedger.claim`: the fresh row plus
    whether the claim took over another owner's lapsed lease."""

    row: ChunkRow
    expired_takeover: bool


class SweepLedger(SQLiteStore):
    """WAL-mode SQLite persistence for one sweep's chunk state machine."""

    SCHEMA = _SCHEMA
    SCHEMA_VERSION = LEDGER_SCHEMA_VERSION
    STORE_NAME = "sweep ledger"
    SchemaError = LedgerError

    # -- registration ------------------------------------------------------

    def register(
        self,
        sweep_key: str,
        chunks: Sequence[ChunkDef],
        resume: bool = False,
    ) -> int:
        """Bind the ledger to a sweep and ensure every chunk has a row.

        Returns the number of chunks already ``done`` (the resume
        credit).  A fresh ledger is claimed for ``sweep_key``; an
        existing one must carry the *same* key (else
        :class:`LedgerMismatch`) and, if any progress was recorded, the
        caller must opt in with ``resume=True`` (else
        :class:`LedgerNeedsResume` — the guard against two different
        invocations silently interleaving).
        """
        now = time.time()
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE name='sweep_key'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta VALUES ('sweep_key', ?)", (sweep_key,)
                )
            elif row[0] != sweep_key:
                raise LedgerMismatch(
                    f"ledger {self.path} belongs to sweep {row[0][:16]}..., "
                    f"not {sweep_key[:16]}...; use a fresh ledger directory"
                )
            else:
                (progressed,) = self._conn.execute(
                    "SELECT COUNT(*) FROM chunks WHERE state != 'pending'"
                ).fetchone()
                if progressed and not resume:
                    raise LedgerNeedsResume(
                        f"ledger {self.path} records prior progress "
                        f"({progressed} chunk(s) past pending); pass "
                        f"--resume to continue it"
                    )
            self._conn.executemany(
                "INSERT OR IGNORE INTO chunks"
                " (chunk_id, seq, stage, label, state, updated_at)"
                " VALUES (?,?,?,?,'pending',?)",
                [(c.chunk_id, c.seq, c.stage, c.label, now) for c in chunks],
            )
            (done,) = self._conn.execute(
                "SELECT COUNT(*) FROM chunks WHERE state='done'"
            ).fetchone()
        return done

    # -- the claim/complete/fail cycle -------------------------------------

    def claim(
        self,
        owner: str,
        lease_seconds: float,
        now: Optional[float] = None,
    ) -> Optional[ClaimedChunk]:
        """Atomically lease the next claimable chunk, or return ``None``.

        Claimable: ``pending``, or ``leased`` with an expired lease (the
        claimant died); restricted to the lowest stage that still has
        non-terminal chunks, so stage barriers hold across processes.
        The returned row already carries this claim (state ``leased``,
        ``attempts`` incremented).
        """
        now = time.time() if now is None else now
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                stage_row = self._conn.execute(
                    "SELECT MIN(stage) FROM chunks"
                    " WHERE state NOT IN ('done', 'quarantined')"
                ).fetchone()
                if stage_row is None or stage_row[0] is None:
                    self._conn.execute("COMMIT")
                    return None
                # The lowest open stage: a stage only opens once every
                # earlier stage is terminal.
                stage = stage_row[0]
                row = self._conn.execute(
                    "SELECT chunk_id, state FROM chunks WHERE stage = ?"
                    " AND (state = 'pending'"
                    "      OR (state = 'leased' AND lease_expires < ?))"
                    " ORDER BY seq LIMIT 1",
                    (stage, now),
                ).fetchone()
                if row is None:
                    self._conn.execute("COMMIT")
                    return None
                chunk_id, prior_state = row
                self._conn.execute(
                    "UPDATE chunks SET state='leased', owner=?,"
                    " lease_expires=?, attempts=attempts+1, updated_at=?"
                    " WHERE chunk_id=?",
                    (owner, now + lease_seconds, now, chunk_id),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return ClaimedChunk(
            row=self.get(chunk_id),
            expired_takeover=(prior_state == "leased"),
        )

    def renew(
        self,
        chunk_id: str,
        owner: str,
        lease_seconds: float,
        now: Optional[float] = None,
    ) -> bool:
        """Extend a held lease (heartbeat).  False: the lease was lost."""
        now = time.time() if now is None else now
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "UPDATE chunks SET lease_expires=?, updated_at=?"
                " WHERE chunk_id=? AND owner=? AND state='leased'",
                (now + lease_seconds, now, chunk_id, owner),
            )
        return cursor.rowcount == 1

    def complete(self, chunk_id: str, owner: str, summary_json: str) -> bool:
        """Mark a leased chunk ``done``, storing its summary in the same
        write.  False: the lease was already stolen (a slow claimant
        racing a takeover) — results are identical by determinism, so
        the caller just moves on."""
        now = time.time()
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "UPDATE chunks SET state='done', summary=?, error=NULL,"
                " owner=?, lease_expires=NULL, updated_at=?"
                " WHERE chunk_id=? AND owner=? AND state='leased'",
                (summary_json, owner, now, chunk_id, owner),
            )
        return cursor.rowcount == 1

    def fail(
        self, chunk_id: str, owner: str, error: str, max_failures: int
    ) -> Optional[str]:
        """Record a failed execution; re-pend or quarantine.

        Returns the resulting state (``pending`` or ``quarantined``), or
        ``None`` when the lease had already been stolen.
        """
        now = time.time()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT failures FROM chunks WHERE chunk_id=? AND"
                    " owner=? AND state='leased'",
                    (chunk_id, owner),
                ).fetchone()
                if row is None:
                    self._conn.execute("COMMIT")
                    return None
                failures = row[0] + 1
                state = "pending" if failures <= max_failures else "quarantined"
                self._conn.execute(
                    "UPDATE chunks SET state=?, failures=?, error=?,"
                    " owner=NULL, lease_expires=NULL, updated_at=?"
                    " WHERE chunk_id=?",
                    (state, failures, error, now, chunk_id),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return state

    def release(self, chunk_id: str, owner: str) -> bool:
        """Voluntarily return a leased chunk to ``pending`` (graceful
        interrupt); the execution attempt is not counted as a failure."""
        now = time.time()
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "UPDATE chunks SET state='pending', owner=NULL,"
                " lease_expires=NULL, attempts=MAX(attempts-1, 0),"
                " updated_at=? WHERE chunk_id=? AND owner=?"
                " AND state='leased'",
                (now, chunk_id, owner),
            )
        return cursor.rowcount == 1

    # -- reads -------------------------------------------------------------

    def get(self, chunk_id: str) -> Optional[ChunkRow]:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {', '.join(_CHUNK_COLUMNS)} FROM chunks"
                " WHERE chunk_id=?",
                (chunk_id,),
            ).fetchone()
        return ChunkRow(*row) if row else None

    def chunks(self) -> List[ChunkRow]:
        """Every chunk row, in canonical (``seq``) order."""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {', '.join(_CHUNK_COLUMNS)} FROM chunks"
                " ORDER BY seq"
            ).fetchall()
        return [ChunkRow(*row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Chunk totals by state (absent states map to 0)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM chunks GROUP BY state"
            ).fetchall()
        payload = {state: 0 for state in CHUNK_STATES}
        payload.update(dict(rows))
        payload["total"] = sum(count for _, count in rows)
        return payload

    def all_terminal(self) -> bool:
        """True once every chunk is ``done`` or ``quarantined``."""
        with self._lock:
            (open_chunks,) = self._conn.execute(
                "SELECT COUNT(*) FROM chunks"
                " WHERE state NOT IN ('done', 'quarantined')"
            ).fetchone()
        return open_chunks == 0
