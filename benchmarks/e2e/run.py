"""End-to-end benchmark of the reproduction: four workloads, one command.

Run from anywhere inside a checkout::

    python3 benchmarks/e2e/run.py                # all workloads + traced breakdown
    python3 benchmarks/e2e/run.py --smoke        # tiny sizes, self-test speed
    python3 benchmarks/e2e/run.py --workload partition_400 --seed 7 \\
        --seconds 20 --trace 0                  # one workload, as BENCHMARK.json runs it

Workloads (sizes in ``child.SIZES``; reasons in README.md and BENCHMARK.json):

* ``runall_cold``: ``run-all --jobs 1`` into a fresh cache and output dir.
* ``runall_warm``: the same command against a cache filled once in set-up.
* ``forksim_chunked``: the fork sim as checkpointed ``simulate-chunk`` jobs
  through ``WorkerPool(workers=1)`` on a fresh ``ResultCache``.
* ``partition_400``: the 400-node partition job through ``execute_job``.

Every repeat is a fresh child process (``child.py``).  One child runs at
a time, and the next starts when the last has exited (a closed loop with
one client).  With several workloads the repeats go round-robin, so
machine drift spreads over all of them.  A workload repeats until it has
at least two samples and another would overrun ``--seconds``.  Then,
with ``--trace 1``, it runs twice more with the timing shim
(``spans.py``).

End-to-end metrics come only from untraced repeats, as medians:
``norm_items_per_s`` (the work rate, scaled by a reference loop timed
on the other core while each repeat runs, see ``REFERENCE_S``),
``peak_rss_mb`` (the child's ``ru_maxrss``) and ``setup_s`` (spawn to
the first call into the workload's entry point, scaled the same way).
The table also prints the raw ``wall_s`` and
``items_per_s``, and ``fail_rate``.  Items are the fork simulation's
blocks for run-all and the chunked sim, and processed events for the
partition.

Every run is checked.  Each repeat must reproduce the first repeat's
digest, and traced runs must match too.  The chunked fork sim must equal
a single-shot ``simulate`` job.  Warm run-all must equal the cold run
that filled its cache.  At the default seed every digest must also equal
``golden.json``.  Any failure makes the command exit 1.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With one ``--workload`` the metrics are the
``end_to_end`` entries of BENCHMARK.json with ``--trace 0`` and its
``per_layer`` entries with ``--trace 1``; with all workloads they are
both lists, keyed ``<workload>/<metric>``.  Temporary files live in
``.bench_e2e/tmp`` at the root of the checkout and are deleted before
exit; ``.bench_e2e/spans_<workload>.json`` keeps the traced runs' spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import child
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_e2e"
WORKLOADS = ("runall_cold", "runall_warm", "forksim_chunked", "partition_400")

MIN_REPEATS = 2
TRACED_REPEATS = 2
COVERAGE_FLOOR = 0.95
#: Per workload: a BENCHMARK.json run must finish within 180 s.
TIME_LIMIT_S = 170.0

#: A typical :func:`_reference_loop_s` on the host the baseline in
#: ``results/`` was recorded on, so there ``norm_items_per_s`` reads close
#: to ``items_per_s``.  While a child runs, :class:`SpeedSampler` times
#: the loop on the other core; the child's user time is scaled by the
#: mean of (REFERENCE_S / loop time) over those samples
#: (:attr:`Sample.scaled_s`).  When a shared host runs everything slower
#: for a while, the loop and the workload slow together and the scaled
#: time holds.
REFERENCE_S = 0.0025
#: Pause between two loops of :class:`SpeedSampler`: the sampler keeps
#: its core about 5% busy, and the child has the other one.
SAMPLE_GAP_S = 0.05

#: The count a workload's ``items_per_s`` divides by its wall time.
ITEM_COUNT = {
    "runall_cold": "sim.blocks",
    "runall_warm": "sim.blocks",
    "forksim_chunked": "sim.blocks",
    "partition_400": "net.events",
}


class BenchError(Exception):
    """A child that failed, timed out, or produced the wrong output."""


@dataclass
class Sample:
    """One child process: spawn to exit, and what it reported."""

    wall_s: float
    setup_s: float
    rss_mb: float
    work_s: float
    report: Dict[str, Any]
    #: The child's user CPU time, from ``os.wait4``.
    user_s: float
    #: Mean machine speed while the child ran, 1.0 at REFERENCE_S.
    speed: float

    @property
    def scaled_s(self) -> float:
        """``wall_s`` at the reference machine speed.  Only user time is
        scaled: on the baseline host kernel work such as page faults
        slows by about a quarter as much as interpreted code does."""
        return self.wall_s - self.user_s * (1.0 - self.speed)


def _reap(process: subprocess.Popen, timeout: float):
    """Wait for ``process`` via ``os.wait4``, the one wait that returns
    the child's own ``ru_maxrss``; kill it after ``timeout`` seconds.
    Returns ``(exit code, rusage, monotonic exit time)``."""
    reaped: Dict[str, Any] = {}

    def wait() -> None:
        _, status, usage = os.wait4(process.pid, 0)
        reaped.update(ended=time.monotonic(), status=status, usage=usage)

    waiter = threading.Thread(target=wait, daemon=True)
    waiter.start()
    try:
        waiter.join(timeout)
    finally:
        timed_out = waiter.is_alive()
        if timed_out:
            process.kill()
            waiter.join()
        process.returncode = os.waitstatus_to_exitcode(reaped["status"])
    if timed_out:
        raise BenchError(f"timed out after {timeout:.0f} s")
    return process.returncode, reaped["usage"], reaped["ended"]


def _reference_loop_s() -> float:
    """One timing of a fixed pure-Python loop: how fast this machine
    runs interpreter-bound code right now."""
    started = time.perf_counter()
    total = 0
    table = {}
    for i in range(20_000):
        total += i * i
        table[i & 4095] = total
    return time.perf_counter() - started


class SpeedSampler:
    """Times :func:`_reference_loop_s` every SAMPLE_GAP_S seconds in a
    thread, for as long as a ``with`` block runs.

    On the shared baseline host both cores speed up and slow down
    together (two loops on the two cores correlate at 0.97 over 0.5 s
    windows), so the loop on the parent's core tracks the speed of the
    child on the other.  Used as a context manager, the thread stops and
    is joined on every way out of the block.
    """

    def __init__(self) -> None:
        self._speeds: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            self._speeds.append(REFERENCE_S / _reference_loop_s())
            if self._stop.wait(SAMPLE_GAP_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self) -> float:
        """Mean machine speed while sampling, 1.0 at the reference."""
        return statistics.fmean(self._speeds)


def _tail(path: Path, lines: int = 8) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


class Bench:
    """Spawns children for one size and seed, inside ``tmp``."""

    def __init__(self, size: str, seed: int, tmp: Path, deadline: float) -> None:
        self.size = size
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.spawned = 0
        pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, pythonpath)),
            TMPDIR=str(tmp),
        )
        # Users run with the interpreter's default bytecode cache, and the
        # warm-up child fills it; without it every set-up would compile.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, request: Dict[str, Any]) -> Sample:
        self.spawned += 1
        report_path = self.tmp / f"report-{self.spawned}.json"
        log_path = self.tmp / f"child-{self.spawned}.log"
        request = dict(
            request, size=self.size, seed=self.seed, report=str(report_path)
        )
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the run started")
        command = [sys.executable, str(HERE / "child.py"), json.dumps(request)]
        with open(log_path, "wb") as log, SpeedSampler() as sampler:
            started = time.monotonic()
            process = subprocess.Popen(
                command, cwd=ROOT, env=self.env, stdout=log,
                stderr=subprocess.STDOUT,
            )
            code, usage, ended = _reap(process, timeout)
        if code != 0:
            raise BenchError(
                f"{request.get('workload')} exited with {code}:\n{_tail(log_path)}"
            )
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError) as exc:
            raise BenchError(f"unreadable report: {exc}") from exc
        return Sample(
            wall_s=ended - started,
            # CLOCK_MONOTONIC is system-wide on Linux, so the child's
            # timestamps compare directly with ours.
            setup_s=report["entered"] - started,
            rss_mb=usage.ru_maxrss / 1024.0,
            work_s=report["returned"] - report["entered"],
            report=report,
            user_s=usage.ru_utime,
            speed=sampler.speed(),
        )


class Session:
    """One workload within a run: its repeats, checks and metrics."""

    def __init__(self, bench: Bench, workload: str, golden: Dict[str, Any]) -> None:
        self.bench = bench
        self.workload = workload
        self.golden = golden
        self.samples: List[Sample] = []
        self.traced: List[Sample] = []
        self.attempted = 0
        self.errors: List[str] = []
        #: The digest and work count every run of this workload must
        #: repeat; run-all also reports the digest of each artifact.
        self.digest: Optional[str] = None
        self.files: Optional[Dict[str, str]] = None
        self.items: Optional[int] = None
        self.cache_dir: Optional[str] = None

    # -- running -------------------------------------------------------------

    def _attempt(self, workload: str, mode: str = "run") -> Optional[Sample]:
        """One child in fresh directories, deleted afterwards; ``None``
        (and the error recorded) if it failed or disagreed."""
        self.attempted += 1
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=self.bench.tmp))
        try:
            sample = self.bench.spawn(
                {
                    "mode": mode,
                    "workload": workload,
                    "cache_dir": self.cache_dir or str(workdir / "cache"),
                    "out_dir": str(workdir / "out"),
                }
            )
            self._agree(workload, sample.report)
            return sample
        except BenchError as exc:
            self.errors.append(f"{workload} ({mode}): {exc}")
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _agree(self, workload: str, report: Dict[str, Any]) -> None:
        if self.digest is None:
            self.digest = report["digest"]
            self.files = report.get("files")
        elif report["digest"] != self.digest:
            raise BenchError(
                f"digest {report['digest']} differs from {self.digest}"
            )
        if workload in ITEM_COUNT and workload != "runall_warm":
            items = report["counts"][ITEM_COUNT[workload]]
            if self.items is None:
                self.items = items
            elif items != self.items:
                raise BenchError(f"work count {items} differs from {self.items}")

    def setup(self) -> None:
        """Warm run-all needs a filled cache: one cold run, untimed."""
        if self.workload == "runall_warm":
            self.cache_dir = tempfile.mkdtemp(prefix="warm-cache-", dir=self.bench.tmp)
            self._attempt("runall_cold")

    def done(self, seconds: float) -> bool:
        if self.errors:
            return True
        walls = [sample.wall_s for sample in self.samples]
        if len(walls) < MIN_REPEATS:
            return False
        return sum(walls) + statistics.median(walls) > seconds

    def repeat(self) -> None:
        sample = self._attempt(self.workload)
        if sample is not None:
            self.samples.append(sample)

    def trace(self) -> None:
        sample = self._attempt(self.workload, "trace")
        if sample is not None:
            self.traced.append(sample)

    def finish(self) -> None:
        """The checks that need every repeat: single-shot equality,
        golden digests, traced-count determinism and coverage."""
        if self.errors:
            return
        if self.workload == "forksim_chunked":
            self._attempt("forksim_single")
        if self.bench.seed == self.golden["seed"]:
            expected = self.golden[self.bench.size][self.workload]
            got = {"digest": self.digest, "items": self.items}
            if self.files is not None:
                got["files"] = self.files
            if got != expected:
                wrong = [key for key in expected if got.get(key) != expected[key]]
                wrong += [
                    name for name, digest in expected.get("files", {}).items()
                    if got.get("files", {}).get(name) != digest
                ]
                self.errors.append(
                    f"differs from golden.json in {wrong}: {json.dumps(got)}"
                )
        if self.traced:
            first, *others = [self._trace_shape(s) for s in self.traced]
            if any(shape != first for shape in others):
                self.errors.append("span calls or counts differ between traced runs")
            coverage = min(self._summary(s)["coverage"] for s in self.traced)
            if coverage < COVERAGE_FLOOR:
                self.errors.append(f"trace coverage {coverage:.3f} < {COVERAGE_FLOOR}")

    # -- metrics -------------------------------------------------------------

    @staticmethod
    def _summary(sample: Sample) -> Dict[str, Any]:
        return spans.summarize(sample.report["spans"], sample.work_s)

    def _trace_shape(self, sample: Sample):
        calls = {n: row["calls"] for n, row in self._summary(sample)["spans"].items()}
        return calls, sample.report["counts"]

    def distributions(self) -> Dict[str, List[float]]:
        """Per-repeat values of every untraced metric."""
        samples = self.samples
        return {
            "wall_s": [s.wall_s for s in samples],
            "items_per_s": [self.items / s.wall_s for s in samples],
            "norm_items_per_s": [self.items / s.scaled_s for s in samples],
            "setup_s": [s.setup_s * s.speed for s in samples],
            "peak_rss_mb": [s.rss_mb for s in samples],
        }

    def end_to_end(self) -> Dict[str, float]:
        return {
            name: statistics.median(values)
            for name, values in self.distributions().items()
        }

    def per_layer(self) -> Dict[str, float]:
        traced = self.traced
        summaries = [self._summary(sample) for sample in traced]
        values: Dict[str, float] = {}
        for name in spans.SPAN_NAMES:
            rows = [summary["spans"][name] for summary in summaries]
            values[f"{name}.calls"] = rows[0]["calls"]
            for field in ("total", "self"):
                values[f"{name}.{field}_share"] = statistics.fmean(
                    row[f"{field}_s"] / sample.work_s
                    for row, sample in zip(rows, traced)
                )
        counts = traced[0].report["counts"]
        values.update(counts)
        lookups = counts["harness.cache.hits"] + counts["harness.cache.misses"]
        values["harness.cache.hit_ratio"] = (
            counts["harness.cache.hits"] / lookups if lookups else 0.0
        )
        attempts = sum(
            counts[f"net.messages.{kind}"]
            for kind in ("sent", "lost", "undeliverable", "blocked")
        )
        values["net.delivery_ratio"] = (
            counts["net.messages.sent"] / attempts if attempts else 0.0
        )
        values["trace.work_s"] = statistics.median(s.work_s for s in traced)
        values["trace.overhead"] = (
            statistics.median(s.scaled_s for s in traced)
            / statistics.median(s.scaled_s for s in self.samples)
            - 1.0
        )
        values["trace.coverage"] = min(s["coverage"] for s in summaries)
        return values

    def write_spans(self) -> None:
        payload = {
            "workload": self.workload,
            "size": self.bench.size,
            "seed": self.bench.seed,
            "span_fields": ["name", "parent", "start_s", "end_s"],
            "runs": [
                {
                    "wall_s": sample.wall_s,
                    "work_s": sample.work_s,
                    "summary": self._summary(sample),
                    "counts": sample.report["counts"],
                    "spans": sample.report["spans"],
                }
                for sample in self.traced
            ],
        }
        path = WORK / f"spans_{self.workload}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")


def measure(sessions: List[Session], seconds: float, trace: bool) -> None:
    for session in sessions:
        session.setup()
    pending = [s for s in sessions if not s.done(seconds)]
    while pending:
        for session in pending:
            session.repeat()
        pending = [s for s in pending if not s.done(seconds)]
    if trace:
        for _ in range(TRACED_REPEATS):
            for session in sessions:
                if not session.errors:
                    session.trace()
    for session in sessions:
        session.finish()


# -- reporting ----------------------------------------------------------------


def _print_end_to_end(sessions: List[Session], units: Dict[str, str]) -> None:
    print(f"{'workload':<16} {'metric':<16} {'median':>12} {'min':>12} "
          f"{'max':>12} {'n':>3}  unit")
    for session in sessions:
        for name, values in session.distributions().items():
            if values:
                print(f"{session.workload:<16} {name:<16} "
                      f"{statistics.median(values):>12.4f} {min(values):>12.4f} "
                      f"{max(values):>12.4f} {len(values):>3}  {units[name]}")
        print(f"{session.workload:<16} {'fail_rate':<16} "
              f"{len(session.errors) / session.attempted:>12.4f} "
              f"{'':>12} {'':>12} {session.attempted:>3}  fraction")


def _print_per_layer(session: Session) -> None:
    values = session.per_layer()
    summaries = [Session._summary(sample) for sample in session.traced]
    print(f"\n{session.workload}: traced work {values['trace.work_s']:.3f} s, "
          f"coverage {values['trace.coverage']:.3f}, "
          f"overhead {values['trace.overhead']:+.3f}")
    print(f"  {'span':<38} {'calls':>6} {'total_s':>9} {'self_s':>9} {'self_share':>10}")
    for name in spans.SPAN_NAMES:
        rows = [summary["spans"][name] for summary in summaries]
        if not rows[0]["calls"]:
            continue
        total = statistics.fmean(row["total_s"] for row in rows)
        own = statistics.fmean(row["self_s"] for row in rows)
        print(f"  {name:<38} {rows[0]['calls']:>6} {total:>9.3f} {own:>9.3f} "
              f"{values[name + '.self_share']:>10.3f}")
    counts = ", ".join(
        f"{name}={value}" for name, value in session.traced[0].report["counts"].items()
        if value
    )
    print(f"  counts: {counts}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=child.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="untraced measuring time per workload (default: "
                             "run_seconds from BENCHMARK.json; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also run each workload twice with the timing "
                             "shim and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run inside a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    tmp = WORK / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    bench = Bench(
        "smoke" if args.smoke else "default",
        args.seed,
        tmp,
        time.monotonic() + TIME_LIMIT_S * len(workloads),
    )
    sessions = [Session(bench, workload, golden) for workload in workloads]
    try:
        try:
            bench.spawn({"mode": "run", "workload": "warmup"})
        except BenchError as exc:
            print(f"error: warm-up import failed: {exc}", file=sys.stderr)
            return 1
        measure(sessions, seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for session in sessions:
        for error in session.errors:
            print(f"FAIL {error}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    _print_end_to_end(sessions, dict(units, wall_s="s", items_per_s="1/s"))
    failed = sum(len(session.errors) for session in sessions)
    attempted = sum(session.attempted for session in sessions)
    metrics: Dict[str, Dict[str, Any]] = {}
    if not failed:
        for session in sessions:
            values = session.end_to_end()
            if args.trace:
                _print_per_layer(session)
                session.write_spans()
                values.update(session.per_layer())
            if len(sessions) == 1:
                # One workload is how BENCHMARK.json runs it: exactly one
                # of its two metric lists, under plain names.
                prefix = ""
                declared = spec["per_layer"] if args.trace else spec["end_to_end"]
            else:
                prefix = f"{session.workload}/"
                declared = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
            for metric in declared:
                metrics[prefix + metric["name"]] = {
                    "value": values[metric["name"]], "unit": metric["unit"],
                }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
