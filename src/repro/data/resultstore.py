"""Durable job/result store for the scenario service (``repro.serve``).

The harness's :class:`~repro.harness.cache.ResultCache` holds the heavy
pickled values; this sibling persists the *service-level* view — one row
per submitted job (cache key, kind, tenant, terminal status, attempts,
wall time) and one row per distinct result summary (canonical JSON plus
its SHA-256 digest) — so a restarted server can answer ``POST /jobs``
for a previously computed config straight from SQLite without touching
the engine, and ``GET /results/{digest}`` works across process
lifetimes.

Stdlib ``sqlite3`` through :class:`~repro.data.sqlitestore.SQLiteStore`:
WAL journal mode so the serving event loop's readers never block the
executor thread's writer, and one connection shared across threads
behind a lock, which keeps the store usable from both the asyncio thread
and the worker-pool bridge.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, NamedTuple, Optional

from .sqlitestore import SQLiteStore

__all__ = ["ResultStore", "JobRow", "RESULTSTORE_SCHEMA_VERSION"]

#: Bump on any table/column change; files of any other version are refused.
RESULTSTORE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    name  TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS jobs (
    key          TEXT PRIMARY KEY,      -- JobSpec.cache_key()
    kind         TEXT NOT NULL,
    label        TEXT NOT NULL,
    params_json  TEXT NOT NULL,         -- canonical JSON
    tenant       TEXT NOT NULL,
    status       TEXT NOT NULL,         -- submitted | ok | failed | timeout
    digest       TEXT,                  -- result summary digest (ok only)
    error        TEXT,
    attempts     INTEGER NOT NULL DEFAULT 0,
    wall_time    REAL NOT NULL DEFAULT 0.0,
    cache_hit    INTEGER NOT NULL DEFAULT 0,
    submitted_at REAL NOT NULL,
    completed_at REAL
);
CREATE INDEX IF NOT EXISTS jobs_by_digest ON jobs (digest);
CREATE INDEX IF NOT EXISTS jobs_by_tenant ON jobs (tenant, submitted_at);

CREATE TABLE IF NOT EXISTS results (
    digest       TEXT PRIMARY KEY,      -- SHA-256 of summary_json
    kind         TEXT NOT NULL,
    summary_json TEXT NOT NULL,         -- canonical JSON summary
    created_at   REAL NOT NULL
);
"""

_JOB_COLUMNS = (
    "key", "kind", "label", "params_json", "tenant", "status", "digest",
    "error", "attempts", "wall_time", "cache_hit", "submitted_at",
    "completed_at",
)


class JobRow(NamedTuple):
    """One persisted job record."""

    key: str
    kind: str
    label: str
    params_json: str
    tenant: str
    status: str
    digest: Optional[str]
    error: Optional[str]
    attempts: int
    wall_time: float
    cache_hit: bool
    submitted_at: float
    completed_at: Optional[float]

    @property
    def terminal(self) -> bool:
        return self.status != "submitted"

    def as_dict(self) -> Dict[str, Any]:
        payload = self._asdict()
        payload["cache_hit"] = bool(payload["cache_hit"])
        return payload


class ResultStore(SQLiteStore):
    """WAL-mode SQLite persistence for the scenario service."""

    SCHEMA = _SCHEMA
    SCHEMA_VERSION = RESULTSTORE_SCHEMA_VERSION
    STORE_NAME = "result store"
    SchemaError = ValueError

    # -- writes ------------------------------------------------------------

    def record_submitted(
        self,
        key: str,
        kind: str,
        label: str,
        params_json: str,
        tenant: str,
        submitted_at: Optional[float] = None,
    ) -> None:
        """Upsert the job as in flight.

        A resubmission of a key whose previous run failed simply
        rewrites the row — the store keeps the latest attempt.
        """
        now = time.time() if submitted_at is None else submitted_at
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO jobs (key, kind, label, params_json, tenant,"
                " status, submitted_at) VALUES (?,?,?,?,?,'submitted',?)"
                " ON CONFLICT(key) DO UPDATE SET status='submitted',"
                " tenant=excluded.tenant, submitted_at=excluded.submitted_at,"
                " digest=NULL, error=NULL, attempts=0, wall_time=0.0,"
                " cache_hit=0, completed_at=NULL",
                (key, kind, label, params_json, tenant, now),
            )

    def record_completed(
        self,
        key: str,
        status: str,
        digest: Optional[str] = None,
        summary_json: Optional[str] = None,
        kind: Optional[str] = None,
        error: Optional[str] = None,
        attempts: int = 1,
        wall_time: float = 0.0,
        cache_hit: bool = False,
    ) -> None:
        """Mark the job terminal; on success also persist the summary."""
        if status not in ("ok", "failed", "timeout"):
            raise ValueError(f"not a terminal status: {status!r}")
        if status == "ok" and (digest is None or summary_json is None):
            raise ValueError("an ok job needs a digest and a summary")
        now = time.time()
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE jobs SET status=?, digest=?, error=?, attempts=?,"
                " wall_time=?, cache_hit=?, completed_at=? WHERE key=?",
                (status, digest, error, attempts, wall_time,
                 int(cache_hit), now, key),
            )
            if status == "ok":
                if kind is None:
                    found = self._conn.execute(
                        "SELECT kind FROM jobs WHERE key=?", (key,)
                    ).fetchone()
                    kind = found[0] if found else ""
                self._conn.execute(
                    "INSERT OR IGNORE INTO results VALUES (?,?,?,?)",
                    (digest, kind, summary_json, now),
                )

    def forget(self, key: str) -> None:
        """Drop one job row (its result row, if shared, survives)."""
        with self._lock, self._conn:
            self._conn.execute("DELETE FROM jobs WHERE key=?", (key,))

    # -- reads -------------------------------------------------------------

    def get_job(self, key: str) -> Optional[JobRow]:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {', '.join(_JOB_COLUMNS)} FROM jobs WHERE key=?",
                (key,),
            ).fetchone()
        return self._job_from_row(row) if row else None

    def get_result(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored summary (parsed) for one result digest."""
        with self._lock:
            row = self._conn.execute(
                "SELECT kind, summary_json FROM results WHERE digest=?",
                (digest,),
            ).fetchone()
        if row is None:
            return None
        kind, summary_json = row
        return {
            "digest": digest,
            "kind": kind,
            "summary": json.loads(summary_json),
        }

    def list_jobs(self, limit: int = 100) -> List[JobRow]:
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {', '.join(_JOB_COLUMNS)} FROM jobs"
                " ORDER BY submitted_at DESC, key LIMIT ?",
                (limit,),
            ).fetchall()
        return [self._job_from_row(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Row totals by status plus the distinct-result count."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) FROM jobs GROUP BY status"
            ).fetchall()
            (results,) = self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
        payload = {f"jobs_{status}": count for status, count in rows}
        payload["jobs"] = sum(count for _, count in rows)
        payload["results"] = results
        return payload

    @staticmethod
    def _job_from_row(row) -> JobRow:
        values = list(row)
        values[10] = bool(values[10])  # cache_hit
        return JobRow(*values)
