"""Chunked, resumable sweep execution over the worker pool.

Long sweeps (the fault grid, figure batches, eventually the 1M-block
horizons from the ROADMAP) used to run as one monolithic
:meth:`WorkerPool.run` — a crash, OOM, or SIGTERM at hour three lost
everything.  This module splits a sweep into **content-addressed
chunks** and records per-chunk state in a durable
:class:`~repro.harness.ledger.SweepLedger` — a finished chunk's
canonical-JSON summary lands in its ledger row in the same transaction
that marks it done — so that:

* a killed sweep resumes from the last finished chunk (``--resume``),
  possibly in a *different* process — or several at once, sharing the
  ledger directory: claims are leased, and a crashed claimant's lease
  lapses back to the claimable pool;
* a chunk that keeps failing is **quarantined** after its retry budget
  instead of sinking the sweep — the run completes degraded, with the
  quarantined chunks listed explicitly;
* the deterministic ``combine`` step stitches the rows' summaries in
  canonical ``seq`` order, so the combined summary digest is
  byte-identical to the uninterrupted single-shot run (the repo's
  determinism contract, now extended across process deaths).

:func:`run_sweep` is the one driver every sweep command goes through
(``run-all``, ``fault-sweep``, ``topology-sweep``).  A sweep supplies
its stages, a per-chunk ``summarize`` and an artifact writer; the
driver runs the stages either single-shot (straight through the pool,
no ledger) or chunked (through :class:`SweepRunner`), then builds the
manifest, the quarantine payload and the artifacts the same way for
both.

:class:`CrashyPool` is the proof harness: a pool wrapper that injects
orchestrator crashes at scheduled chunk executions so the differential
tests can kill a sweep anywhere and show the stitched result unchanged.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import signal
import socket
import threading
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs import MetricsRegistry
from .jobs import JobSpec, canonical_json
from .ledger import ChunkDef, SweepLedger
from .manifest import JobRecord, RunManifest
from .pool import DEFAULT_TIMEOUT, JobResult, WorkerPool
from .progress import NullProgress

__all__ = [
    "SweepChunk",
    "SweepOutcome",
    "SweepResult",
    "SweepSettings",
    "SweepRunner",
    "CrashyPool",
    "ChunkFailure",
    "plan_chunks",
    "run_sweep",
    "sweep_digest",
    "sweep_key_for",
    "write_sweep_tables",
    "EXIT_OK",
    "EXIT_FAILED",
    "EXIT_USAGE",
    "EXIT_INTERRUPTED",
    "EXIT_DEGRADED",
]

#: CLI exit codes for sweeps.  ``EXIT_FAILED`` means failed jobs
#: (single-shot) or a blown quarantine budget (chunked);
#: ``EXIT_INTERRUPTED`` means the ledger was checkpointed and
#: ``--resume`` will continue the sweep; ``EXIT_DEGRADED`` means the
#: sweep completed but quarantined chunks.
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 3
EXIT_DEGRADED = 4

_EXIT_CODES = {
    "complete": EXIT_OK,
    "failed": EXIT_FAILED,
    "interrupted": EXIT_INTERRUPTED,
    "degraded": EXIT_DEGRADED,
}


@dataclass(frozen=True)
class SweepChunk:
    """One schedulable slice of a sweep: a few specs plus its address.

    The ``chunk_id`` is a SHA-256 over the member specs' cache keys (and
    the chunk's position), so the same sweep definition always produces
    the same chunk identities — the property that makes a ledger written
    by one process meaningful to another.
    """

    chunk_id: str
    seq: int
    stage: int
    label: str
    specs: Tuple[JobSpec, ...]


class ChunkFailure(RuntimeError):
    """A chunk execution ended with failed jobs (after pool retries)."""


def plan_chunks(
    stages: Sequence[Sequence[JobSpec]],
    chunk_size: int,
    salt: Optional[Dict[str, Any]] = None,
) -> List[SweepChunk]:
    """Slice each stage's spec list into content-addressed chunks.

    Stages are barriers (``run-all`` waves): every chunk of stage *n*
    must finish before stage *n+1* opens.  A plain sweep is one stage.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    chunks: List[SweepChunk] = []
    seq = 0
    for stage, specs in enumerate(stages):
        specs = list(specs)
        for offset in range(0, len(specs), chunk_size):
            members = tuple(specs[offset : offset + chunk_size])
            payload = canonical_json(
                {
                    "salt": salt or {},
                    "stage": stage,
                    "index": offset // chunk_size,
                    "keys": [spec.cache_key() for spec in members],
                }
            )
            chunk_id = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            first = members[0].label
            label = (
                first
                if len(members) == 1
                else f"{first} (+{len(members) - 1})"
            )
            chunks.append(
                SweepChunk(
                    chunk_id=chunk_id,
                    seq=seq,
                    stage=stage,
                    label=label,
                    specs=members,
                )
            )
            seq += 1
    return chunks


def sweep_key_for(
    chunks: Sequence[SweepChunk], salt: Optional[Dict[str, Any]] = None
) -> str:
    """The sweep's identity: hash of the ordered chunk addresses."""
    payload = canonical_json(
        {"salt": salt or {}, "chunks": [c.chunk_id for c in chunks]}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# fault injection


class CrashyPool:
    """A pool wrapper that dies on schedule — the resumability proof rig.

    ``crash_at`` maps 0-based *execution indices* (the n-th ``run`` call
    made through this wrapper, across retries) to a fault mode:

    * ``"before"`` — crash before any job runs (nothing observable
      happened; the chunk lease must recover it);
    * ``"after"`` — run the chunk fully, then crash before the caller
      can record its summary in the ledger (the expensive-work-lost
      case);
    * ``"hard"`` — raise ``SystemExit`` mid-chunk, emulating a killed
      orchestrator process inside a test.

    Everything else delegates to the wrapped pool, so recovery runs the
    *real* execution path.
    """

    def __init__(
        self,
        inner: WorkerPool,
        crash_at: Optional[Dict[int, str]] = None,
    ) -> None:
        self.inner = inner
        self.crash_at = dict(crash_at or {})
        self.calls = 0

    def run(self, specs: Sequence[JobSpec]):
        index = self.calls
        self.calls += 1
        mode = self.crash_at.get(index)
        if mode == "before":
            raise RuntimeError(f"CrashyPool: injected crash before run {index}")
        if mode == "hard":
            raise SystemExit(f"CrashyPool: injected hard death at run {index}")
        results = self.inner.run(specs)
        if mode == "after":
            raise RuntimeError(
                f"CrashyPool: injected crash after run {index} "
                f"(summary never recorded)"
            )
        return results


# --------------------------------------------------------------------------
# the runner


@dataclass
class SweepOutcome:
    """What one :meth:`SweepRunner.run` invocation accomplished."""

    #: ``complete`` | ``degraded`` (quarantined chunks) |
    #: ``interrupted`` (checkpointed; resume to continue) |
    #: ``failed`` (quarantine budget exceeded).
    state: str
    #: ``(chunk, summary)`` in canonical order for every ``done`` chunk.
    summaries: List[Tuple[SweepChunk, Dict[str, Any]]] = field(
        default_factory=list
    )
    #: Ledger rows of quarantined chunks (empty unless degraded/failed).
    quarantined: List[Any] = field(default_factory=list)
    #: Ledger chunk-state totals at exit.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Deterministic-shape metrics summary (values are wall-clock
    #: dependent: lease takeovers, resume credits).
    metrics: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def resumable(self) -> bool:
        return self.state == "interrupted"


@dataclass
class SweepResult:
    """What one sweep *invocation* accomplished, CLI-facing: the outcome
    state mapped to an exit code, plus the manifest when the sweep got
    as far as writing its artifacts."""

    #: ``complete`` | ``degraded`` | ``interrupted`` | ``failed``.
    state: str
    exit_code: int
    #: None when a chunked sweep was interrupted (the ledger holds the
    #: progress) or blew its quarantine budget; a single-shot sweep with
    #: failed jobs still writes it (state ``failed``).
    manifest: Optional[RunManifest] = None
    sweep_digest: Optional[str] = None
    #: ``{chunk_id, label, error, failures, ...}`` per quarantined chunk.
    quarantined: List[Dict[str, Any]] = field(default_factory=list)
    error: Optional[str] = None


class _LeaseHeartbeat:
    """Renews a held lease from a daemon thread while a chunk runs."""

    def __init__(
        self, ledger: SweepLedger, chunk_id: str, owner: str,
        lease_seconds: float,
    ) -> None:
        self.ledger = ledger
        self.chunk_id = chunk_id
        self.owner = owner
        self.lease_seconds = lease_seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def _beat(self) -> None:
        interval = max(self.lease_seconds / 3.0, 0.05)
        while not self._stop.wait(interval):
            if not self.ledger.renew(
                self.chunk_id, self.owner, self.lease_seconds
            ):
                return  # lease lost; nothing left to keep alive

    def __enter__(self) -> "_LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


class SweepRunner:
    """Claim → run → record → repeat, until the ledger is terminal.

    The runner owns no sweep semantics: ``summarize`` turns one chunk's
    pool results into a JSON-able summary (raising fails the chunk),
    and the caller stitches the returned summaries into its final
    artifacts.  Several runners (threads or processes) may share one
    ledger directory; each claims disjoint chunks.
    """

    def __init__(
        self,
        ledger_dir: Union[str, Path],
        pool,
        summarize: Callable[[SweepChunk, List[Any]], Dict[str, Any]],
        *,
        lease_seconds: float = 300.0,
        chunk_retries: int = 1,
        max_quarantined: Optional[int] = None,
        poll_interval: float = 0.25,
        progress=None,
        registry: Optional[MetricsRegistry] = None,
        owner: Optional[str] = None,
        install_signal_handlers: bool = True,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be > 0")
        if chunk_retries < 0:
            raise ValueError("chunk_retries must be >= 0")
        self.ledger_dir = Path(ledger_dir)
        self.pool = pool
        self.summarize = summarize
        self.lease_seconds = lease_seconds
        self.chunk_retries = chunk_retries
        self.max_quarantined = max_quarantined
        self.poll_interval = poll_interval
        self.progress = progress or NullProgress()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.owner = owner or (
            f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"
        )
        self.install_signal_handlers = install_signal_handlers
        self._stop_requested = threading.Event()

    # -- control -----------------------------------------------------------

    def request_stop(self) -> None:
        """Checkpoint and exit after the chunk in flight (signal-safe)."""
        self._stop_requested.set()

    def _handle_signal(self, signum, frame) -> None:
        if self._stop_requested.is_set():
            # Second signal: the user means it.  Abandon the chunk in
            # flight (its lease will lapse) and unwind now.
            raise KeyboardInterrupt
        self._stop_requested.set()
        self.progress.note(
            f"signal {signal.Signals(signum).name}: checkpointing after "
            f"the chunk in flight (again to abort immediately)"
        )

    # -- the loop ----------------------------------------------------------

    def run(
        self,
        chunks: Sequence[SweepChunk],
        sweep_key: Optional[str] = None,
        resume: bool = False,
    ) -> SweepOutcome:
        chunks = list(chunks)
        sweep_key = sweep_key or sweep_key_for(chunks)
        by_id = {chunk.chunk_id: chunk for chunk in chunks}
        counters = self.registry
        installed: List[Tuple[int, Any]] = []
        if self.install_signal_handlers and (
            threading.current_thread() is threading.main_thread()
        ):
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    installed.append(
                        (signum, signal.signal(signum, self._handle_signal))
                    )
                except (ValueError, OSError):  # pragma: no cover
                    pass
        ledger = SweepLedger(self.ledger_dir / "ledger.db")
        try:
            done = ledger.register(
                sweep_key,
                [
                    ChunkDef(c.chunk_id, c.seq, c.stage, c.label)
                    for c in chunks
                ],
                resume=resume,
            )
            if resume and done:
                counters.counter("sweep.chunks.resumed").inc(done)
                self.progress.note(
                    f"resume: {done}/{len(chunks)} chunk(s) already done"
                )
            state = self._claim_loop(ledger, by_id)
            return self._finish(ledger, by_id, state)
        finally:
            for signum, previous in installed:
                try:
                    signal.signal(signum, previous)
                except (ValueError, OSError):  # pragma: no cover
                    pass
            ledger.close()

    def _claim_loop(
        self, ledger: SweepLedger, by_id: Dict[str, SweepChunk]
    ) -> str:
        counters = self.registry
        while True:
            if self._stop_requested.is_set():
                counters.counter("sweep.interrupts").inc()
                return "interrupted"
            if self.max_quarantined is not None:
                if ledger.counts()["quarantined"] > self.max_quarantined:
                    return "failed"
            claim = ledger.claim(self.owner, self.lease_seconds)
            if claim is None:
                if ledger.all_terminal():
                    return "terminal"
                # Another process holds the remaining leases; wait for
                # them to land (or for their leases to lapse).
                time.sleep(self.poll_interval)
                continue
            counters.counter("sweep.leases.claimed").inc()
            if claim.expired_takeover:
                counters.counter("sweep.leases.expired").inc()
                self.progress.note(
                    f"chunk {claim.row.chunk_id[:12]}: taking over a "
                    f"lapsed lease (attempt {claim.row.attempts})"
                )
            # register() bound the ledger to this sweep key, a hash of
            # these very chunk ids, so every row is in ``by_id``.
            chunk = by_id[claim.row.chunk_id]
            try:
                self._execute_chunk(ledger, chunk)
            except (KeyboardInterrupt, SystemExit):
                # Hard interrupt mid-chunk: put the chunk straight back
                # (no failure charged) and checkpoint.
                ledger.release(chunk.chunk_id, self.owner)
                counters.counter("sweep.interrupts").inc()
                return "interrupted"

    def _execute_chunk(self, ledger: SweepLedger, chunk: SweepChunk) -> None:
        counters = self.registry
        try:
            with _LeaseHeartbeat(
                ledger, chunk.chunk_id, self.owner, self.lease_seconds
            ):
                results = self.pool.run(list(chunk.specs))
                failed = [
                    result.record
                    for result in results
                    if result.record.status != "ok"
                ]
                if failed:
                    raise ChunkFailure(
                        "; ".join(
                            f"{record.label} [{record.status}]: "
                            f"{record.error}"
                            for record in failed
                        )
                    )
                summary = self.summarize(chunk, results)
            # Canonical JSON, and NaN refused: a summary that cannot
            # round-trip byte for byte fails its chunk here.
            summary_json = json.dumps(
                summary, sort_keys=True, separators=(",", ":"),
                allow_nan=False,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            state = ledger.fail(
                chunk.chunk_id, self.owner, error, self.chunk_retries
            )
            if state == "quarantined":
                counters.counter("sweep.chunks.quarantined").inc()
                self.progress.note(
                    f"chunk {chunk.chunk_id[:12]} quarantined: {error}"
                )
            else:
                counters.counter("sweep.chunks.failed").inc()
                self.progress.note(
                    f"chunk {chunk.chunk_id[:12]} failed (will retry): "
                    f"{error}"
                )
            return
        if ledger.complete(chunk.chunk_id, self.owner, summary_json):
            counters.counter("sweep.chunks.completed").inc()
        else:
            # Lease stolen while we computed; the thief's summary is
            # byte-identical by determinism, so this work just counts as
            # a duplicate, not a conflict.
            counters.counter("sweep.leases.lost").inc()

    def _finish(
        self, ledger: SweepLedger, by_id: Dict[str, SweepChunk], state: str
    ) -> SweepOutcome:
        counts = ledger.counts()
        metrics = self.registry.summary()
        if state == "interrupted":
            return SweepOutcome(
                state="interrupted", counts=counts, metrics=metrics,
                error="interrupted; resume with --resume",
            )
        rows = ledger.chunks()
        quarantined = [row for row in rows if row.state == "quarantined"]
        if state == "failed":
            return SweepOutcome(
                state="failed", counts=counts, metrics=metrics,
                quarantined=quarantined,
                error=(
                    f"{counts['quarantined']} quarantined chunk(s) exceed "
                    f"--max-quarantined {self.max_quarantined}"
                ),
            )
        return SweepOutcome(
            state="degraded" if quarantined else "complete",
            summaries=[
                (by_id[row.chunk_id], json.loads(row.summary))
                for row in rows
                if row.state == "done"
            ],
            quarantined=quarantined,
            counts=counts,
            metrics=metrics,
        )


# --------------------------------------------------------------------------
# the sweep driver


def sweep_digest(cell_digests: List[str]) -> str:
    """The sweep's reproducibility fingerprint: hash of the ordered
    per-cell report digests."""
    payload = json.dumps(cell_digests, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def write_sweep_tables(
    output_dir: Path,
    stem: str,
    lines: List[str],
    rows: List[Dict[str, Any]],
    cells: List[Dict[str, Any]],
    payload: Dict[str, Any],
) -> Tuple[List[str], str]:
    """Write ``<stem>.txt`` (``lines``), ``<stem>.csv`` (``rows``, if
    any) and ``<stem>.json`` (``payload`` plus ``cells`` and their sweep
    digest); returns the paths written and the digest."""
    digest = sweep_digest([cell["digest"] for cell in cells])
    text_path = output_dir / f"{stem}.txt"
    text_path.write_text("\n".join(lines) + "\n" if lines else "")
    outputs = [str(text_path)]
    if rows:
        csv_path = output_dir / f"{stem}.csv"
        with csv_path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        outputs.append(str(csv_path))
    json_path = output_dir / f"{stem}.json"
    json_path.write_text(
        json.dumps(
            {**payload, "sweep_digest": digest, "cells": cells},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    outputs.append(str(json_path))
    return outputs, digest


#: Turns one chunk's (or single-shot stage's) ok results into a JSON-able
#: summary; the chunked path records it in the chunk's ledger row.
Summarize = Callable[[List[JobResult]], Dict[str, Any]]
#: ``(summaries in canonical order, chunked-only JSON extras)`` →
#: ``(paths written, sweep digest or None)``.
WriteArtifacts = Callable[
    [List[Dict[str, Any]], Optional[Dict[str, Any]]],
    Tuple[List[str], Optional[str]],
]


def _quarantined(
    rows: Sequence[Any], chunks: Sequence[SweepChunk]
) -> Tuple[List[Dict[str, Any]], List[JobRecord]]:
    """The quarantine payload, plus one failed record per member job."""
    by_id = {chunk.chunk_id: chunk for chunk in chunks}
    payload: List[Dict[str, Any]] = []
    records: List[JobRecord] = []
    for row in rows:
        specs = by_id[row.chunk_id].specs
        payload.append(
            {
                "chunk_id": row.chunk_id,
                "label": row.label,
                "error": row.error,
                "failures": row.failures,
                "cells": [spec.label for spec in specs],
            }
        )
        records.extend(
            JobRecord(
                label=spec.label,
                kind=spec.kind,
                key=spec.cache_key(),
                status="failed",
                cache_hit=False,
                wall_time=0.0,
                attempts=row.attempts,
                error=f"chunk {row.chunk_id[:12]} quarantined: {row.error}",
            )
            for spec in specs
        )
    return payload, records


@dataclass(frozen=True)
class SweepSettings:
    """The pool and ledger settings every sweep entry takes as keywords.

    ``cache_dir=None`` disables the cache (``--no-cache``);
    ``chunk_size=None`` is single-shot, anything else runs through the
    ledger in ``ledger_dir`` (default under ``output_dir``).
    """

    jobs: int = 1
    cache_dir: Optional[Union[str, Path]] = ".repro-cache"
    output_dir: Union[str, Path] = "runs"
    manifest_path: Optional[Union[str, Path]] = None
    timeout: Optional[float] = DEFAULT_TIMEOUT
    retries: int = 1
    progress: Any = None
    retry_backoff: float = 0.0
    chunk_size: Optional[int] = None
    resume: bool = False
    max_quarantined: Optional[int] = None
    ledger_dir: Optional[Union[str, Path]] = None
    lease_seconds: float = 300.0
    chunk_retries: int = 1


def run_sweep(
    stages: Sequence[Sequence[JobSpec]],
    summarize: Summarize,
    write_artifacts: WriteArtifacts,
    settings: SweepSettings,
    *,
    command: str,
    manifest_name: str,
    ledger_name: str,
    salt: Dict[str, Any],
) -> SweepResult:
    """Run ``stages`` (barriers, in order) and write the sweep's artifacts.

    Single-shot (``settings.chunk_size`` unset): each stage is one
    :meth:`WorkerPool.run`, summarized over its ok results; no ledger is
    opened (DESIGN §5 has the cost that rules one out).  Chunked: the
    stages become ``chunk_size``-job chunks run by a :class:`SweepRunner`
    over the ledger in ``settings.ledger_dir`` (default
    ``<output_dir>/<ledger_name>``).  Either way ``write_artifacts`` gets
    the summaries in canonical order, plus, chunked, the
    ``degraded``/``quarantined``/``ledger`` JSON extras.  ``salt`` scopes
    the chunk addresses.
    """
    chunk_size = settings.chunk_size
    if settings.resume and chunk_size is None:
        raise ValueError("resume requires chunk_size")
    progress = settings.progress or NullProgress()
    cache_dir = settings.cache_dir
    output_dir = Path(settings.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = Path(settings.manifest_path or output_dir / manifest_name)
    pool = WorkerPool(
        workers=settings.jobs,
        cache_dir=str(cache_dir) if cache_dir else None,
        timeout=settings.timeout,
        retries=settings.retries,
        progress=progress,
        retry_backoff=settings.retry_backoff,
    )
    started_at = time.time()
    start = time.perf_counter()

    extra: Optional[Dict[str, Any]] = None
    quarantined: List[Dict[str, Any]] = []
    if chunk_size is None:
        records: List[JobRecord] = []
        summaries: List[Dict[str, Any]] = []
        for stage in stages:
            results = pool.run(list(stage))
            records.extend(result.record for result in results)
            ok = [result for result in results if result.record.status == "ok"]
            summaries.append(summarize(ok))
        failed = any(record.status != "ok" for record in records)
        state = "failed" if failed else "complete"
    else:
        command += f" --chunk-size {chunk_size}" + (
            " --resume" if settings.resume else ""
        )
        chunks = plan_chunks(stages, chunk_size, salt=salt)
        runner = SweepRunner(
            Path(settings.ledger_dir or output_dir / ledger_name),
            pool,
            lambda chunk, results: {
                **summarize(results),
                "records": [asdict(result.record) for result in results],
            },
            lease_seconds=settings.lease_seconds,
            chunk_retries=settings.chunk_retries,
            max_quarantined=settings.max_quarantined,
            progress=progress,
        )
        outcome = runner.run(
            chunks,
            sweep_key=sweep_key_for(chunks, salt=salt),
            resume=settings.resume,
        )
        state = outcome.state
        quarantined, failed_records = _quarantined(outcome.quarantined, chunks)
        if state in ("interrupted", "failed"):
            if state == "interrupted":
                counts = outcome.counts
                progress.note(
                    f"interrupted: {counts.get('done', 0)}/"
                    f"{counts.get('total', 0)} chunk(s) done; resume with "
                    f"--resume"
                )
            return SweepResult(
                state=state, exit_code=_EXIT_CODES[state],
                error=outcome.error, quarantined=quarantined,
            )
        summaries = [summary for _, summary in outcome.summaries]
        records = [
            JobRecord(**record)
            for summary in summaries
            for record in summary["records"]
        ] + failed_records
        extra = {
            "degraded": state == "degraded",
            "quarantined": quarantined,
            "ledger": {"chunks": outcome.counts, "metrics": outcome.metrics},
        }

    manifest = RunManifest(
        command=command + (" --no-cache" if cache_dir is None else ""),
        workers=settings.jobs,
        cache_dir=str(cache_dir) if cache_dir else None,
        started_at=started_at,
    )
    for record in records:
        manifest.add(record)
    manifest.total_wall_time = time.perf_counter() - start
    outputs, digest = write_artifacts(summaries, extra)
    manifest.outputs.extend(outputs)
    manifest.write(manifest_path)
    progress.note(f"manifest: {manifest_path}")
    if state == "degraded":
        progress.note(
            f"sweep completed DEGRADED: {len(quarantined)} quarantined "
            f"chunk(s)"
        )
    return SweepResult(
        state=state,
        exit_code=_EXIT_CODES[state],
        manifest=manifest,
        sweep_digest=digest,
        quarantined=quarantined,
    )
