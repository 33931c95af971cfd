"""Chunked sweeps: planning, crash-anywhere resumability, quarantine."""

import pytest

from repro.harness import (
    CrashyPool,
    EXIT_DEGRADED,
    EXIT_OK,
    JobSpec,
    LedgerNeedsResume,
    SweepRunner,
    WorkerPool,
    plan_chunks,
    sweep_key_for,
)


def echo_specs(count, start=0):
    return [
        JobSpec.make("selftest-echo", {"value": index}, label=f"echo-{index}")
        for index in range(start, start + count)
    ]


def summarize_values(chunk, results):
    return {"values": [result.value for result in results]}


def make_runner(tmp_path, pool=None, **kwargs):
    kwargs.setdefault("lease_seconds", 30.0)
    kwargs.setdefault("poll_interval", 0.01)
    # Tests drive interrupts through request_stop(), not real signals.
    kwargs.setdefault("install_signal_handlers", False)
    return SweepRunner(
        tmp_path / "ledger",
        pool or WorkerPool(workers=1, retries=0),
        summarize_values,
        **kwargs,
    )


def collected(outcome):
    return [
        value
        for _, summary in outcome.summaries
        for value in summary["values"]
    ]


class TestPlanChunks:
    def test_chunk_sizes_and_seq(self):
        chunks = plan_chunks([echo_specs(5)], 2)
        assert [len(c.specs) for c in chunks] == [2, 2, 1]
        assert [c.seq for c in chunks] == [0, 1, 2]
        assert all(c.stage == 0 for c in chunks)

    def test_stages_map_to_chunks(self):
        chunks = plan_chunks([echo_specs(2), echo_specs(3, start=2)], 2)
        assert [c.stage for c in chunks] == [0, 1, 1]

    def test_ids_are_stable_and_content_addressed(self):
        first = plan_chunks([echo_specs(4)], 2)
        second = plan_chunks([echo_specs(4)], 2)
        assert [c.chunk_id for c in first] == [c.chunk_id for c in second]
        shifted = plan_chunks([echo_specs(4, start=1)], 2)
        assert first[0].chunk_id != shifted[0].chunk_id
        salted = plan_chunks([echo_specs(4)], 2, salt={"sweep": "x"})
        assert first[0].chunk_id != salted[0].chunk_id
        assert sweep_key_for(first) != sweep_key_for(salted)

    def test_labels_name_the_first_member(self):
        chunks = plan_chunks([echo_specs(3)], 2)
        assert chunks[0].label == "echo-0 (+1)"
        assert chunks[1].label == "echo-2"

    def test_rejects_zero_chunk_size(self):
        with pytest.raises(ValueError):
            plan_chunks([echo_specs(2)], 0)


class TestCleanRun:
    def test_completes_in_canonical_order(self, tmp_path):
        chunks = plan_chunks([echo_specs(5)], 2)
        outcome = make_runner(tmp_path).run(chunks)
        assert outcome.state == "complete"
        assert collected(outcome) == list(range(5))
        assert outcome.counts["done"] == 3

    def test_ledger_directory_holds_only_the_database(self, tmp_path):
        make_runner(tmp_path).run(plan_chunks([echo_specs(3)], 1))
        names = {path.name for path in (tmp_path / "ledger").iterdir()}
        assert "ledger.db" in names
        assert names <= {"ledger.db", "ledger.db-wal", "ledger.db-shm"}

    def test_rerun_without_resume_is_refused(self, tmp_path):
        chunks = plan_chunks([echo_specs(2)], 1)
        make_runner(tmp_path).run(chunks)
        with pytest.raises(LedgerNeedsResume):
            make_runner(tmp_path).run(chunks)

    def test_resume_of_finished_sweep_is_pure_stitching(self, tmp_path):
        chunks = plan_chunks([echo_specs(4)], 2)
        first = make_runner(tmp_path).run(chunks)

        class ExplodingPool:
            def run(self, specs):  # pragma: no cover - must not be called
                raise AssertionError("resume re-executed a done chunk")

        second = make_runner(tmp_path, pool=ExplodingPool()).run(
            chunks, resume=True
        )
        assert collected(second) == collected(first)


class TestCrashRecovery:
    def test_crash_after_work_is_retried_and_digest_stable(self, tmp_path):
        chunks = plan_chunks([echo_specs(4)], 2)
        clean = make_runner(tmp_path / "clean").run(chunks)

        crashy = CrashyPool(
            WorkerPool(workers=1, retries=0), crash_at={0: "after"}
        )
        outcome = make_runner(tmp_path / "crashy", pool=crashy).run(chunks)
        assert outcome.state == "complete"
        assert collected(outcome) == collected(clean)
        # The crashed execution was charged as a chunk failure + retried.
        assert outcome.metrics["counters"]["sweep.chunks.failed"] == 1

    def test_hard_death_checkpoints_then_resumes(self, tmp_path):
        chunks = plan_chunks([echo_specs(4)], 1)
        crashy = CrashyPool(
            WorkerPool(workers=1, retries=0), crash_at={2: "hard"}
        )
        first = make_runner(tmp_path, pool=crashy).run(chunks)
        assert first.state == "interrupted"
        assert first.resumable
        assert first.counts["done"] == 2

        second = make_runner(tmp_path).run(chunks, resume=True)
        assert second.state == "complete"
        assert collected(second) == list(range(4))
        assert second.metrics["counters"]["sweep.chunks.resumed"] == 2

    def test_request_stop_checkpoints_cleanly(self, tmp_path):
        chunks = plan_chunks([echo_specs(3)], 1)
        runner = make_runner(tmp_path)
        runner.request_stop()
        outcome = runner.run(chunks)
        assert outcome.state == "interrupted"
        assert outcome.counts["done"] == 0
        resumed = make_runner(tmp_path).run(chunks, resume=True)
        assert resumed.state == "complete"
        assert collected(resumed) == [0, 1, 2]

    def test_two_runners_share_one_ledger(self, tmp_path):
        import threading

        chunks = plan_chunks([echo_specs(6)], 1)
        outcomes = {}

        def drive(name):
            runner = make_runner(tmp_path, owner=name)
            resume = name == "late"
            outcomes[name] = runner.run(chunks, resume=resume)

        early = threading.Thread(target=drive, args=("early",))
        early.start()
        early.join()
        # Sequential here (SQLite serialises the claims anyway); the
        # concurrency torture lives in the ledger tests.  The point:
        # a second runner attaching to the same ledger sees the done
        # work and completes without re-executing anything.
        drive("late")
        assert outcomes["early"].state == "complete"
        assert outcomes["late"].state == "complete"
        assert collected(outcomes["late"]) == list(range(6))


class TestQuarantine:
    def doomed_chunks(self):
        doomed = JobSpec.make("no-such-kind", {}, label="doomed")
        return plan_chunks([[*echo_specs(2), doomed]], 1)

    def test_degraded_completion_lists_quarantined(self, tmp_path):
        chunks = self.doomed_chunks()
        outcome = make_runner(tmp_path, chunk_retries=1).run(chunks)
        assert outcome.state == "degraded"
        assert collected(outcome) == [0, 1]
        [row] = outcome.quarantined
        assert row.label == "doomed"
        assert row.failures == 2  # first try + chunk_retries
        assert "no-such-kind" in row.error
        assert outcome.metrics["counters"]["sweep.chunks.quarantined"] == 1

    def test_budget_overrun_fails_the_sweep(self, tmp_path):
        chunks = self.doomed_chunks()
        outcome = make_runner(
            tmp_path, chunk_retries=0, max_quarantined=0
        ).run(chunks)
        assert outcome.state == "failed"
        assert "exceed" in outcome.error

    def test_chunk_failure_message_names_the_job(self, tmp_path):
        chunks = self.doomed_chunks()
        outcome = make_runner(tmp_path, chunk_retries=0).run(chunks)
        [row] = outcome.quarantined
        assert "doomed" in row.error


class TestSummarizeContract:
    def test_summarize_exception_fails_the_chunk(self, tmp_path):
        def explode(chunk, results):
            raise ValueError("summary refused")

        runner = SweepRunner(
            tmp_path / "ledger",
            WorkerPool(workers=1, retries=0),
            explode,
            lease_seconds=30.0,
            chunk_retries=0,
            install_signal_handlers=False,
        )
        outcome = runner.run(plan_chunks([echo_specs(1)], 1))
        assert outcome.state == "degraded"
        assert "summary refused" in outcome.quarantined[0].error

    def test_nan_summary_quarantines_the_chunk(self, tmp_path):
        # A summary that canonical JSON cannot hold never reaches the
        # ledger: its chunk fails like any other summarize error.
        def nan_summary(chunk, results):
            return {"values": [float("nan")]}

        runner = SweepRunner(
            tmp_path / "ledger",
            WorkerPool(workers=1, retries=0),
            nan_summary,
            lease_seconds=30.0,
            chunk_retries=0,
            install_signal_handlers=False,
        )
        outcome = runner.run(plan_chunks([echo_specs(1)], 1))
        assert outcome.state == "degraded"
        assert outcome.summaries == []
        [row] = outcome.quarantined
        assert row.summary is None
        assert "ValueError" in row.error and "JSON" in row.error

    # EXIT code constants are part of the CLI contract.
    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_DEGRADED, 1, 2, 3}) == 5
