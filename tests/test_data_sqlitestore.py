"""The shared WAL-SQLite store idiom: both durable stores open only
files stamped with exactly their own schema version."""

import sqlite3

import pytest

from repro.data.resultstore import ResultStore
from repro.harness.ledger import LedgerError, SweepLedger

STORES = [
    pytest.param(SweepLedger, LedgerError, id="sweep-ledger"),
    pytest.param(ResultStore, ValueError, id="result-store"),
]


def stamp(path, version):
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "UPDATE meta SET value = ? WHERE name = 'schema_version'",
            (str(version),),
        )
    conn.close()


@pytest.mark.parametrize("store_cls, error", STORES)
@pytest.mark.parametrize("offset", [-1, 1], ids=["older", "newer"])
def test_other_schema_version_is_refused(tmp_path, store_cls, error, offset):
    path = tmp_path / "nested" / "store.db"
    with store_cls(path) as store:  # makes the parent directory
        assert store.journal_mode == "wal"
    stamp(path, store_cls.SCHEMA_VERSION + offset)
    with pytest.raises(error, match="schema version"):
        store_cls(path)
    # Refused before anything is written: the stamp is left as found.
    conn = sqlite3.connect(path)
    (version,) = conn.execute(
        "SELECT value FROM meta WHERE name = 'schema_version'"
    ).fetchone()
    conn.close()
    assert int(version) == store_cls.SCHEMA_VERSION + offset

