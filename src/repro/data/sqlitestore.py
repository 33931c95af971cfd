"""One WAL-mode SQLite store idiom, shared by every durable table here.

The sweep ledger (:class:`repro.harness.ledger.SweepLedger`) and the
scenario service's :class:`repro.data.resultstore.ResultStore` are each
one small SQLite file written from several threads: one connection
shared behind a lock (every statement is short), ``journal_mode=WAL`` so
readers never block the writer, ``synchronous=NORMAL``, and a
``busy_timeout`` instead of immediate lock errors between processes.

A store stamps its schema version into a ``meta(name, value)`` table and
opens only files carrying exactly that version.  ``CREATE TABLE IF NOT
EXISTS`` never adds a column, so an older file would otherwise open and
fail at its first write; a newer one may hold rows this code misreads.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import Type, Union

__all__ = ["SQLiteStore"]


class SQLiteStore:
    """Base class: connect, install the schema, check its version.

    Subclasses set :attr:`SCHEMA` (a script that creates a
    ``meta(name TEXT PRIMARY KEY, value TEXT NOT NULL)`` table among its
    own), :attr:`SCHEMA_VERSION`, :attr:`STORE_NAME` for messages and
    :attr:`SchemaError`, the exception a version mismatch raises.
    """

    BUSY_TIMEOUT_MS = 5000
    SCHEMA = ""
    SCHEMA_VERSION = 0
    STORE_NAME = "store"
    SchemaError: Type[Exception] = ValueError

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        try:
            self._conn.execute(f"PRAGMA busy_timeout={self.BUSY_TIMEOUT_MS}")
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._install_schema()
        except BaseException:
            self._conn.close()
            raise

    def _install_schema(self) -> None:
        """Refuse a file stamped with another version, before touching
        it; otherwise create what is missing and stamp a fresh file."""
        has_meta = self._conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name='meta'"
        ).fetchone()
        row = (
            self._conn.execute(
                "SELECT value FROM meta WHERE name='schema_version'"
            ).fetchone()
            if has_meta
            else None
        )
        if row is not None and int(row[0]) != self.SCHEMA_VERSION:
            raise self.SchemaError(
                f"{self.STORE_NAME} {self.path} has schema version "
                f"{int(row[0])}; this code reads only version "
                f"{self.SCHEMA_VERSION} (use a fresh file)"
            )
        self._conn.executescript(self.SCHEMA)
        if row is None:
            with self._conn:
                self._conn.execute(
                    "INSERT INTO meta VALUES ('schema_version', ?)",
                    (str(self.SCHEMA_VERSION),),
                )

    # -- lifecycle ---------------------------------------------------------

    @property
    def journal_mode(self) -> str:
        with self._lock:
            (mode,) = self._conn.execute("PRAGMA journal_mode").fetchone()
        return mode

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
