"""The sweep ledger: claims, leases, quarantine, concurrent safety."""

import sqlite3
import threading

import pytest

from repro.harness import (
    ChunkDef,
    LedgerMismatch,
    LedgerNeedsResume,
    SweepLedger,
)

KEY = "sweep-key-1"
SUMMARY = '{"values":[1]}'


def defs(count, stage=0, start_seq=0):
    return [
        ChunkDef(f"chunk-{stage}-{index}", start_seq + index, stage,
                 f"label-{stage}-{index}")
        for index in range(count)
    ]


@pytest.fixture()
def ledger(tmp_path):
    ledger = SweepLedger(tmp_path / "ledger.db")
    yield ledger
    ledger.close()


class TestRegister:
    def test_fresh_registration(self, ledger):
        assert ledger.register(KEY, defs(3)) == 0
        assert ledger.counts() == {
            "pending": 3, "leased": 0, "done": 0, "quarantined": 0,
            "total": 3,
        }

    def test_wrong_sweep_key_rejected(self, ledger):
        ledger.register(KEY, defs(2))
        with pytest.raises(LedgerMismatch):
            ledger.register("other-key", defs(2))

    def test_progress_without_resume_rejected(self, ledger):
        ledger.register(KEY, defs(2))
        claim = ledger.claim("owner-a", 60.0)
        ledger.complete(claim.row.chunk_id, "owner-a", SUMMARY)
        with pytest.raises(LedgerNeedsResume):
            ledger.register(KEY, defs(2))

    def test_resume_reports_done_count(self, ledger):
        ledger.register(KEY, defs(2))
        claim = ledger.claim("owner-a", 60.0)
        ledger.complete(claim.row.chunk_id, "owner-a", SUMMARY)
        assert ledger.register(KEY, defs(2), resume=True) == 1


class TestClaims:
    def test_claims_in_seq_order(self, ledger):
        ledger.register(KEY, defs(3))
        first = ledger.claim("a", 60.0)
        second = ledger.claim("a", 60.0)
        assert first.row.seq == 0 and second.row.seq == 1
        assert not first.expired_takeover

    def test_exhausted_pool_returns_none(self, ledger):
        ledger.register(KEY, defs(1))
        assert ledger.claim("a", 60.0) is not None
        assert ledger.claim("b", 60.0) is None

    def test_expired_lease_is_claimable(self, ledger):
        ledger.register(KEY, defs(1))
        first = ledger.claim("a", 60.0, now=1000.0)
        takeover = ledger.claim("b", 60.0, now=1061.0)
        assert takeover is not None
        assert takeover.expired_takeover
        assert takeover.row.chunk_id == first.row.chunk_id
        assert takeover.row.attempts == 2

    def test_live_lease_is_not_claimable(self, ledger):
        ledger.register(KEY, defs(1))
        ledger.claim("a", 60.0, now=1000.0)
        assert ledger.claim("b", 60.0, now=1030.0) is None

    def test_stage_barrier(self, ledger):
        ledger.register(KEY, defs(1, stage=0) + defs(1, stage=1, start_seq=1))
        claim = ledger.claim("a", 60.0)
        assert claim.row.stage == 0
        # Stage 1 stays closed while stage 0 is non-terminal.
        assert ledger.claim("b", 60.0) is None
        ledger.complete(claim.row.chunk_id, "a", SUMMARY)
        opened = ledger.claim("b", 60.0)
        assert opened is not None and opened.row.stage == 1

    def test_renew_extends_lease(self, ledger):
        ledger.register(KEY, defs(1))
        claim = ledger.claim("a", 60.0, now=1000.0)
        assert ledger.renew(claim.row.chunk_id, "a", 60.0, now=1050.0)
        assert ledger.claim("b", 60.0, now=1090.0) is None
        assert not ledger.renew(claim.row.chunk_id, "b", 60.0, now=1090.0)


class TestCompletionAndFailure:
    def test_complete_records_summary(self, ledger):
        ledger.register(KEY, defs(1))
        claim = ledger.claim("a", 60.0)
        assert ledger.complete(claim.row.chunk_id, "a", SUMMARY)
        row = ledger.get(claim.row.chunk_id)
        assert row.state == "done" and row.summary == SUMMARY
        assert ledger.all_terminal()

    def test_done_summary_survives_reopening(self, tmp_path):
        path = tmp_path / "ledger.db"
        with SweepLedger(path) as ledger:
            ledger.register(KEY, defs(2))
            claim = ledger.claim("a", 60.0)
            ledger.complete(claim.row.chunk_id, "a", SUMMARY)
        with SweepLedger(path) as reopened:
            assert reopened.register(KEY, defs(2), resume=True) == 1
            done, pending = reopened.chunks()
            assert (done.state, done.summary) == ("done", SUMMARY)
            assert (pending.state, pending.summary) == ("pending", None)

    def test_done_row_without_summary_is_refused(self, ledger):
        ledger.register(KEY, defs(1))
        claim = ledger.claim("a", 60.0)
        with pytest.raises(sqlite3.IntegrityError):
            ledger.complete(claim.row.chunk_id, "a", None)
        assert ledger.get(claim.row.chunk_id).state == "leased"

    def test_complete_by_non_owner_is_refused(self, ledger):
        ledger.register(KEY, defs(1))
        claim = ledger.claim("a", 60.0, now=1000.0)
        ledger.claim("b", 60.0, now=1061.0)  # lease lapsed; b took over
        assert not ledger.complete(claim.row.chunk_id, "a", "stale")
        assert ledger.get(claim.row.chunk_id).state == "leased"

    def test_fail_within_budget_returns_to_pending(self, ledger):
        ledger.register(KEY, defs(1))
        claim = ledger.claim("a", 60.0)
        state = ledger.fail(claim.row.chunk_id, "a", "boom", max_failures=1)
        assert state == "pending"
        row = ledger.get(claim.row.chunk_id)
        assert row.failures == 1 and row.error == "boom"

    def test_fail_past_budget_quarantines(self, ledger):
        ledger.register(KEY, defs(1))
        for _ in range(2):
            claim = ledger.claim("a", 60.0)
            state = ledger.fail(
                claim.row.chunk_id, "a", "boom", max_failures=1
            )
        assert state == "quarantined"
        assert ledger.claim("a", 60.0) is None
        assert ledger.all_terminal()

    def test_release_uncharges_the_attempt(self, ledger):
        ledger.register(KEY, defs(1))
        claim = ledger.claim("a", 60.0)
        ledger.release(claim.row.chunk_id, "a")
        row = ledger.get(claim.row.chunk_id)
        assert row.state == "pending" and row.attempts == 0


class TestConcurrency:
    def test_concurrent_claims_are_disjoint(self, tmp_path):
        path = tmp_path / "ledger.db"
        setup = SweepLedger(path)
        setup.register(KEY, defs(8))
        setup.close()

        claimed, errors = [], []
        lock = threading.Lock()

        def worker(owner):
            ledger = SweepLedger(path)
            try:
                while True:
                    claim = ledger.claim(owner, 60.0)
                    if claim is None:
                        return
                    with lock:
                        claimed.append(claim.row.chunk_id)
                    ledger.complete(claim.row.chunk_id, owner, SUMMARY)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)
            finally:
                ledger.close()

        threads = [
            threading.Thread(target=worker, args=(f"owner-{n}",))
            for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(claimed) == 8
        assert len(set(claimed)) == 8  # nobody double-claimed
        check = SweepLedger(path)
        assert check.all_terminal()
        check.close()
