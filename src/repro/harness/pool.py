"""The worker pool: parallel job execution with timeouts and retries.

One OS process per in-flight job (bounded by ``workers``), results
returned over a pipe.  This deliberately is *not*
``multiprocessing.Pool``: that API cannot kill a hung worker — its
per-result timeout leaves the process running.  Here a job that blows
its deadline is terminated, its process discarded, and the job requeued
into a **fresh** worker with the same spec (hence the same seed, hence
the same answer) up to ``retries`` extra attempts before the manifest
records a ``timeout``/``failed`` job.  Crashed workers (a died process,
an unpicklable result) take the same retry path.

When ``workers <= 1``, or ``multiprocessing`` cannot start processes on
the host, the pool degrades to in-process serial execution with
identical results and manifest records (timeouts are best-effort there:
a job cannot be preempted from inside its own process, so each
*attempt's* duration is checked after it fails — matching the parallel
path's per-attempt deadline).

Failed attempts may optionally back off before requeueing
(``retry_backoff``): the delay is exponential with **deterministic
seeded jitter** — a pure function of the backoff seed, the job's cache
key, and the attempt number — so retries stop hammering a transiently
sick host without introducing run-to-run nondeterminism in scheduling
decisions.  The default of ``0.0`` keeps historic behaviour (immediate
requeue), and CI keeps it there.
"""

from __future__ import annotations

import random
import time
import traceback
from collections import deque
from typing import Any, List, NamedTuple, Optional, Sequence

from .cache import NullCache, ResultCache
from .jobs import JobSpec, execute_job
from .manifest import JobRecord
from .progress import NullProgress

__all__ = ["WorkerPool", "JobResult", "DEFAULT_TIMEOUT"]

#: Generous default: one full nine-month simulation fits comfortably.
DEFAULT_TIMEOUT = 900.0


class JobResult(NamedTuple):
    """A finished job: its spec, manifest record, and value (None on failure)."""

    spec: JobSpec
    record: JobRecord
    value: Any


class _Task:
    __slots__ = ("spec", "index", "attempts", "first_start", "not_before")

    def __init__(self, spec: JobSpec, index: int) -> None:
        self.spec = spec
        self.index = index
        self.attempts = 0
        self.first_start = None  # perf_counter at first launch
        self.not_before = None  # backoff gate for the next attempt


def _child_main(
    conn, spec: JobSpec, cache_dir: Optional[str], collect_metrics: bool = False
) -> None:
    """Worker entry point: run one job, ship (status, payload) back."""
    start = time.perf_counter()
    try:
        cache = ResultCache(cache_dir) if cache_dir else NullCache()
        outcome = execute_job(spec, cache, collect_metrics=collect_metrics)
        conn.send(
            (
                "ok",
                outcome.value,
                outcome.cache_hit,
                time.perf_counter() - start,
                outcome.metrics,
            )
        )
    except BaseException as exc:  # noqa: BLE001 - report, don't die silently
        detail = f"{type(exc).__name__}: {exc}"
        tail = traceback.format_exc(limit=3)
        try:
            conn.send(
                ("error", f"{detail}\n{tail}", False,
                 time.perf_counter() - start, None)
            )
        except Exception:
            pass
    finally:
        conn.close()


class WorkerPool:
    """Schedules :class:`JobSpec` batches; see the module docstring."""

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        timeout: Optional[float] = DEFAULT_TIMEOUT,
        retries: int = 1,
        progress=None,
        start_method: Optional[str] = None,
        collect_metrics: bool = False,
        retry_backoff: float = 0.0,
        backoff_seed: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.timeout = timeout
        self.retries = retries
        #: Base delay (seconds) before the first retry; doubles per
        #: further retry, with deterministic seeded jitter.  0 = requeue
        #: immediately (the historic behaviour; CI keeps it there).
        self.retry_backoff = retry_backoff
        self.backoff_seed = backoff_seed
        #: When True, each executed (non-cached) job runs with a per-job
        #: metrics registry and its summary lands on the JobRecord.
        self.collect_metrics = collect_metrics
        self.progress = progress or NullProgress()
        #: The serial path's cache.  Without a cache directory it is one
        #: in-memory :class:`NullCache` for the pool's lifetime, so the
        #: jobs of every ``run`` share their inputs (each parallel
        #: worker still starts from an empty one).
        self._serial_cache = (
            ResultCache(self.cache_dir) if self.cache_dir else NullCache()
        )
        self._ctx = None
        if workers > 1:
            self._ctx = self._probe_context(start_method)
            if self._ctx is None:
                self.progress.note(
                    "multiprocessing unavailable; falling back to serial"
                )
                self.workers = 1

    @staticmethod
    def _probe_context(start_method: Optional[str]):
        """A usable multiprocessing context, or None for serial fallback."""
        try:
            import multiprocessing
            from multiprocessing import connection  # noqa: F401

            ctx = (
                multiprocessing.get_context(start_method)
                if start_method
                else multiprocessing.get_context()
            )
            # Some hosts import multiprocessing fine but cannot create
            # primitives (missing /dev/shm, locked-down sandboxes).
            reader, writer = ctx.Pipe(duplex=False)
            reader.close()
            writer.close()
            return ctx
        except (ImportError, OSError, ValueError):
            return None

    # -- public API --------------------------------------------------------

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before attempt ``attempt`` (1-based) of the
        job with cache key ``key``.

        Pure function of ``(backoff_seed, key, attempt)``: exponential
        in the retry count with jitter drawn from a ``random.Random``
        seeded by those three values, uniformly in ``[0.5, 1.0)`` of the
        exponential step — every run of the same pool configuration
        backs the same job off by the same amount.
        """
        if self.retry_backoff <= 0 or attempt <= 1:
            return 0.0
        rng = random.Random(f"{self.backoff_seed}:{key}:{attempt}")
        step = self.retry_backoff * (2.0 ** (attempt - 2))
        return step * (0.5 + rng.random() / 2.0)

    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        """Execute every spec; results come back in input order."""
        specs = list(specs)
        self.progress.begin(len(specs))
        if self.workers <= 1 or self._ctx is None or len(specs) <= 1:
            results = self._run_serial(specs)
        else:
            results = self._run_parallel(specs)
        return results

    # -- serial fallback ---------------------------------------------------

    def _run_serial(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        cache = self._serial_cache
        results: List[JobResult] = []
        for spec in specs:
            self.progress.job_started(spec.label)
            start = time.perf_counter()
            attempts = 0
            error: Optional[str] = None
            value = None
            cache_hit = False
            metrics = None
            status = "failed"
            while attempts <= self.retries:
                attempts += 1
                delay = self.backoff_delay(spec.cache_key(), attempts)
                if delay > 0:
                    time.sleep(delay)
                attempt_start = time.perf_counter()
                try:
                    outcome = execute_job(
                        spec, cache, collect_metrics=self.collect_metrics
                    )
                    value = outcome.value
                    cache_hit = outcome.cache_hit
                    metrics = outcome.metrics
                    status = "ok"
                    error = None
                    break
                except Exception as exc:  # noqa: BLE001
                    error = f"{type(exc).__name__}: {exc}"
                    # Per-attempt deadline, matching the parallel path:
                    # a retry starts its clock fresh rather than being
                    # declared a timeout for its predecessors' sins.
                    elapsed = time.perf_counter() - attempt_start
                    if self.timeout is not None and elapsed > self.timeout:
                        status = "timeout"
                        break
            record = JobRecord(
                label=spec.label,
                kind=spec.kind,
                key=spec.cache_key(),
                status=status,
                cache_hit=cache_hit,
                wall_time=time.perf_counter() - start,
                attempts=attempts,
                error=error,
                metrics=metrics,
            )
            self.progress.job_finished(record)
            results.append(JobResult(spec, record, value))
        return results

    # -- parallel path -----------------------------------------------------

    def _launch(self, task: _Task, running: dict) -> None:
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_child_main,
            args=(writer, task.spec, self.cache_dir, self.collect_metrics),
            daemon=True,
        )
        task.attempts += 1
        if task.first_start is None:
            task.first_start = time.perf_counter()
            self.progress.job_started(task.spec.label)
        process.start()
        # The child owns its end now; closing ours makes EOF detection
        # on a dead child reliable.
        writer.close()
        deadline = (
            time.perf_counter() + self.timeout
            if self.timeout is not None
            else None
        )
        running[reader] = (task, process, deadline)

    def _settle(
        self,
        task: _Task,
        status: str,
        value: Any,
        cache_hit: bool,
        error: Optional[str],
        results: dict,
        metrics: Optional[dict] = None,
    ) -> None:
        record = JobRecord(
            label=task.spec.label,
            kind=task.spec.kind,
            key=task.spec.cache_key(),
            status=status,
            cache_hit=cache_hit,
            wall_time=time.perf_counter() - task.first_start,
            attempts=task.attempts,
            error=error,
            metrics=metrics,
        )
        self.progress.job_finished(record)
        results[task.index] = JobResult(task.spec, record, value)

    def _retry_or_settle(
        self,
        task: _Task,
        status: str,
        error: str,
        pending: deque,
        results: dict,
    ) -> None:
        if task.attempts <= self.retries:
            delay = self.backoff_delay(
                task.spec.cache_key(), task.attempts + 1
            )
            task.not_before = (
                time.perf_counter() + delay if delay > 0 else None
            )
            pending.append(task)
        else:
            self._settle(task, status, None, False, error, results)

    def _next_ready(self, pending: deque, now: float) -> Optional[_Task]:
        """Pop the first task whose backoff gate has passed, preserving
        queue order among the rest; None if everyone is backing off."""
        for _ in range(len(pending)):
            task = pending[0]
            if task.not_before is None or task.not_before <= now:
                return pending.popleft()
            pending.rotate(-1)
        return None

    def _run_parallel(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        from multiprocessing import connection

        pending: deque = deque(
            _Task(spec, index) for index, spec in enumerate(specs)
        )
        running: dict = {}
        results: dict = {}
        try:
            while pending or running:
                launch_now = time.perf_counter()
                while pending and len(running) < self.workers:
                    task = self._next_ready(pending, launch_now)
                    if task is None:
                        break
                    self._launch(task, running)
                if not running:
                    # Every pending task is waiting out its backoff.
                    time.sleep(0.01)
                    continue
                ready = connection.wait(list(running), timeout=0.1)
                for reader in ready:
                    task, process, _ = running.pop(reader)
                    try:
                        message = reader.recv()
                    except EOFError:
                        message = None
                    reader.close()
                    process.join()
                    if message is None:
                        self._retry_or_settle(
                            task,
                            "failed",
                            f"worker died (exitcode {process.exitcode})",
                            pending,
                            results,
                        )
                    elif message[0] == "ok":
                        _, value, cache_hit, _, metrics = message
                        self._settle(
                            task, "ok", value, cache_hit, None, results,
                            metrics=metrics,
                        )
                    else:
                        self._retry_or_settle(
                            task, "failed", message[1], pending, results
                        )
                now = time.perf_counter()
                for reader, (task, process, deadline) in list(running.items()):
                    if deadline is not None and now > deadline:
                        running.pop(reader)
                        process.terminate()
                        process.join()
                        reader.close()
                        self._retry_or_settle(
                            task,
                            "timeout",
                            f"exceeded {self.timeout:.0f}s deadline",
                            pending,
                            results,
                        )
        finally:
            for reader, (task, process, _) in running.items():
                process.terminate()
                process.join()
                reader.close()
        return [results[index] for index in sorted(results)]
