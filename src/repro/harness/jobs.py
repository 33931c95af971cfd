"""Declarative experiment jobs: frozen specs plus a runner registry.

A :class:`JobSpec` is the unit of work the harness schedules: a job
*kind* (``simulate``, ``figure``, ``observations``, ...) plus a
canonical-JSON parameter blob that captures every knob and seed.  The
spec is frozen and picklable, so it crosses process boundaries intact,
and its :meth:`~JobSpec.cache_key` — a SHA-256 over the canonical JSON
— is the content address under which the result is cached.

Runners are pure functions ``(params, cache) -> result`` registered per
kind.  Composite jobs (a figure, the observation scoreboard) obtain
their expensive inputs *through the cache* via :func:`run_cached`, so
five figure jobs running in five workers share one simulation once the
first worker has stored it — and a warm cache turns each of them into a
single pickle load.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.echoes import EchoDetector
from ..core.observations import Observation, evaluate_all
from ..core.report import FigureData, figure_1, figure_2, figure_3, figure_4, figure_5
from ..obs import MetricsRegistry, Observability
from ..scenarios.dos_forks import compare_upgrade_forks
from ..scenarios.partition_event import (
    ChaosPartitionConfig,
    PartitionResult,
    PartitionScenario,
    PartitionScenarioConfig,
    TopologyPartitionConfig,
)
from ..scenarios.topology_inference import (
    TopologyInferenceConfig,
    TopologyInferenceResult,
    TopologyInferenceScenario,
)
from ..scenarios.replay_attack import GroundTruth, replay_detector
from ..sim.checkpoint import ForkSimCheckpoint
from ..sim.engine import (
    ForkSimConfig,
    ForkSimResult,
    ForkSimulation,
    run_fork_sim,
)

__all__ = [
    "JobSpec",
    "JobOutcome",
    "EchoBundle",
    "register_runner",
    "registered_kinds",
    "run_job",
    "execute_job",
    "run_cached",
    "simulate_spec",
    "simulate_chunk_spec",
    "partition_spec",
    "chaos_partition_spec",
    "topology_partition_spec",
    "topology_infer_spec",
    "obs_probe_spec",
    "perf_probe_spec",
    "echoes_spec",
    "figure_spec",
    "observations_spec",
    "fork_lengths_spec",
    "CACHE_SCHEMA_VERSION",
]

#: Bumping this invalidates every cached result (schema change, runner
#: semantics change).  It is hashed into every cache key.
#: v2: PartitionResult grew a ``robustness`` field (repro.faults).
#: v3: the ``echoes`` value dropped its replay records; its detector
#: pickles packed columns instead of Echo objects.
#: v4: a ``simulate-chunk`` value carries its ForkSimCheckpoint as an
#: object instead of a base64 JSON dict.
#: v5: an intermediate ``simulate-chunk`` value holds a delta checkpoint
#: (only its own days' columns) and a chained digest; ChainTrace pickles
#: its columns through ``PickleBuffer``.
CACHE_SCHEMA_VERSION = 5


def canonical_json(params: Dict[str, Any]) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance.

    Raises ``TypeError`` on values JSON cannot represent — a cache key
    must never depend on ``repr`` fallbacks.
    """
    return json.dumps(
        params, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


@dataclass(frozen=True)
class JobSpec:
    """One schedulable experiment: kind + canonical parameters + seed."""

    kind: str
    params_json: str
    label: str

    @classmethod
    def make(
        cls, kind: str, params: Dict[str, Any], label: Optional[str] = None
    ) -> "JobSpec":
        return cls(
            kind=kind,
            params_json=canonical_json(params),
            label=label or kind,
        )

    @property
    def params(self) -> Dict[str, Any]:
        return json.loads(self.params_json)

    def cache_key(self) -> str:
        payload = canonical_json(
            {
                "version": CACHE_SCHEMA_VERSION,
                "kind": self.kind,
                "params": json.loads(self.params_json),
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class JobOutcome(NamedTuple):
    value: Any
    cache_hit: bool
    #: ``MetricsRegistry.summary()`` from an instrumented execution, or
    #: None (metrics collection off, cache hit, or nothing recorded).
    metrics: Optional[Dict[str, Any]] = None


# --------------------------------------------------------------------------
# runner registry


_RUNNERS: Dict[str, Callable[..., Any]] = {}
#: Kinds whose runner accepts ``(params, cache, registry)`` — they
#: thread a per-job :class:`~repro.obs.MetricsRegistry` into the work.
_REGISTRY_AWARE: set = set()


def register_runner(kind: str, wants_registry: bool = False):
    """Decorator: register the runner for a job kind.

    ``wants_registry=True`` declares the signature
    ``(params, cache, registry)`` where ``registry`` is a per-job
    :class:`~repro.obs.MetricsRegistry` (or None when metrics collection
    is off).  The default keeps the original ``(params, cache)``
    contract, so custom runners registered by downstream code keep
    working unchanged.
    """

    def decorator(fn: Callable[..., Any]):
        _RUNNERS[kind] = fn
        if wants_registry:
            _REGISTRY_AWARE.add(kind)
        else:
            _REGISTRY_AWARE.discard(kind)
        return fn

    return decorator


def registered_kinds() -> Tuple[str, ...]:
    """Every job kind with a registered runner, sorted (for the serve
    layer's request validation and for introspection)."""
    return tuple(sorted(_RUNNERS))


def run_job(spec: JobSpec, cache, registry=None) -> Any:
    """Execute a spec unconditionally (no lookup of *this* spec's key).

    The runner may still consult ``cache`` for sub-results it composes
    over (e.g. a figure job loading the shared simulation).
    ``registry`` is forwarded only to registry-aware runners.
    """
    runner = _RUNNERS.get(spec.kind)
    if runner is None:
        raise KeyError(f"no runner registered for job kind {spec.kind!r}")
    if spec.kind in _REGISTRY_AWARE:
        return runner(spec.params, cache, registry)
    return runner(spec.params, cache)


def execute_job(spec: JobSpec, cache, collect_metrics: bool = False) -> JobOutcome:
    """Cache-through execution: lookup, else run and store.

    With ``collect_metrics=True`` a fresh per-job registry instruments
    the run (registry-aware kinds only) and its deterministic summary
    rides back on the outcome — it never enters the cached value, so
    cache keys and stored results are identical either way.
    """
    key = spec.cache_key()
    hit, value = cache.lookup(key)
    if hit:
        return JobOutcome(value, True)
    registry = MetricsRegistry() if collect_metrics else None
    value = run_job(spec, cache, registry)
    cache.store(key, value)
    summary = registry.summary() if registry is not None else None
    return JobOutcome(value, False, summary)


def run_cached(spec: JobSpec, cache) -> Any:
    """Sub-result memoization helper used inside composite runners."""
    return execute_job(spec, cache).value


# --------------------------------------------------------------------------
# spec constructors


def simulate_spec(config: ForkSimConfig) -> JobSpec:
    return JobSpec.make(
        "simulate",
        {"config": config.to_dict()},
        label=f"simulate[{config.days}d seed={config.seed}]",
    )


def simulate_chunk_spec(
    config: ForkSimConfig, upto_day: int, chunk_days: int
) -> JobSpec:
    """One in-horizon chunk of a fork simulation: days ``[0, upto_day)``.

    Chunks chain through the cache: the runner loads the previous
    chunk's :class:`~repro.sim.checkpoint.ForkSimCheckpoint` (computing
    it on demand if missing) and resumes, so a preempted ``run-all``
    loses at most ``chunk_days`` of mining instead of the whole horizon.
    An intermediate chunk caches only the days it mined; the final
    chunk (``upto_day >= config.days``) stitches them back together and
    publishes the full :class:`ForkSimResult` under the plain
    ``simulate`` key, so downstream figure/observation jobs cache-hit as
    if the simulation had run single-shot.
    """
    return JobSpec.make(
        "simulate-chunk",
        {
            "config": config.to_dict(),
            "upto_day": upto_day,
            "chunk_days": chunk_days,
        },
        label=(
            f"simulate-chunk[{min(upto_day, config.days)}/{config.days}d "
            f"seed={config.seed}]"
        ),
    )


def partition_spec(config: Optional[PartitionScenarioConfig] = None) -> JobSpec:
    config = config or PartitionScenarioConfig()
    return JobSpec.make(
        "partition",
        {"config": asdict(config)},
        label=f"partition[{config.num_nodes} nodes]",
    )


def chaos_partition_spec(config: ChaosPartitionConfig) -> JobSpec:
    """A fault-injected partition run; the schedule digest labels it."""
    digest = config.fault_schedule().digest()[:8]
    return JobSpec.make(
        "chaos-partition",
        {"config": asdict(config)},
        label=f"chaos[{config.num_nodes}n sched={digest}]",
    )


def topology_partition_spec(config: TopologyPartitionConfig) -> JobSpec:
    """A partition run on an explicit topology; the family labels it."""
    family = (config.topology or {}).get("kind", "mesh")
    return JobSpec.make(
        "topology-partition",
        {"config": asdict(config)},
        label=f"topology[{family} {config.num_nodes}n]",
    )


def topology_infer_spec(config: TopologyInferenceConfig) -> JobSpec:
    """A marked-transaction topology-inference run."""
    family = (config.topology or {}).get("kind", "uniform")
    nodes = (config.topology or {}).get("num_nodes", config.num_nodes)
    return JobSpec.make(
        "topology-infer",
        {"config": asdict(config)},
        label=f"topology-infer[{family} {nodes}n]",
    )


def obs_probe_spec(config: PartitionScenarioConfig) -> JobSpec:
    """A fully instrumented partition run that returns only digests.

    The probe exists for the determinism test surface: it runs the
    scenario with metrics *and* tracing live and returns a plain dict of
    fingerprints (never the heavyweight result), so identical seeds must
    yield identical payloads in-process and across fork/spawn workers.
    """
    return JobSpec.make(
        "obs-probe",
        {
            "config": asdict(config),
            "chaos": isinstance(config, ChaosPartitionConfig),
        },
        label=f"obs-probe[{config.num_nodes}n seed={config.seed}]",
    )


def perf_probe_spec(config: ForkSimConfig) -> JobSpec:
    """A fast-vs-reference kernel check that returns only fingerprints.

    The probe runs the same fork sim twice in one worker — once on the
    batched kernels, once on the seed-state implementations from
    :mod:`repro.perf.reference` — and returns their digests.  It is the
    pool-facing face of the benchmark gate: spawn workers must agree
    with in-process runs, and the two arms must agree with each other.
    The value holds no wall-clock time, so it digests the same on every
    run.
    """
    return JobSpec.make(
        "perf-probe",
        {"config": config.to_dict()},
        label=f"perf-probe[{config.days}d seed={config.seed}]",
    )


def echoes_spec(
    sim_config: ForkSimConfig, replay_seed: int = 4242
) -> JobSpec:
    return JobSpec.make(
        "echoes",
        {"sim": sim_config.to_dict(), "replay_seed": replay_seed},
        label=f"echoes[{sim_config.days}d]",
    )


def figure_spec(
    number: int, sim_config: ForkSimConfig, replay_seed: int = 4242
) -> JobSpec:
    if number not in (1, 2, 3, 4, 5):
        raise ValueError(f"no figure {number}; the paper has figures 1-5")
    params: Dict[str, Any] = {"number": number, "sim": sim_config.to_dict()}
    if number == 4:
        # Only figure 4 consumes the replay workload; keeping the seed
        # out of the other keys lets them survive replay-knob changes.
        params["replay_seed"] = replay_seed
    return JobSpec.make("figure", params, label=f"figure-{number}")


def observations_spec(
    sim_config: ForkSimConfig,
    partition_config: Optional[PartitionScenarioConfig] = None,
    replay_seed: int = 4242,
) -> JobSpec:
    partition_config = partition_config or PartitionScenarioConfig()
    return JobSpec.make(
        "observations",
        {
            "sim": sim_config.to_dict(),
            "partition": asdict(partition_config),
            "replay_seed": replay_seed,
        },
        label="observations",
    )


def fork_lengths_spec() -> JobSpec:
    return JobSpec.make("fork-lengths", {}, label="fork-lengths")


# --------------------------------------------------------------------------
# built-in runners


@dataclass
class EchoBundle:
    """The replay workload's outputs, bundled for caching.

    Only what the figures read: the detector (packed echo columns) and
    the generator's ground truth.  The sighting stream is not cached;
    :func:`~repro.scenarios.replay_attack.replay_stream` regenerates it.
    """

    detector: EchoDetector
    truth: GroundTruth


def _registry_obs(registry) -> Optional[Observability]:
    """Wrap a per-job registry as a metrics-only obs bundle (or None)."""
    if registry is None:
        return None
    return Observability(metrics=registry)


@register_runner("simulate", wants_registry=True)
def _run_simulate(params: Dict[str, Any], cache, registry=None) -> ForkSimResult:
    return run_fork_sim(
        ForkSimConfig.from_dict(params["config"]), obs=_registry_obs(registry)
    )


@register_runner("simulate-chunk", wants_registry=True)
def _run_simulate_chunk(
    params: Dict[str, Any], cache, registry=None
) -> Dict[str, Any]:
    """Resume-or-start one horizon chunk; returns the chunk's summary.

    The chunks before this one end at the multiples of ``chunk_days``
    below ``upto_day``.  An intermediate chunk resumes from its
    predecessor's :meth:`~repro.sim.checkpoint.ForkSimCheckpoint.tip`,
    so it mines and keeps only its own days: its value holds a *delta*
    checkpoint object, ``blocks`` counts the whole prefix, and
    ``digest`` chains ``sha256(previous digest + segment digest)``, so
    it still covers every block so far.  The final chunk stitches its
    predecessors' deltas into the full prefix, resumes, and publishes
    the full :class:`ForkSimResult` under the plain ``simulate`` key
    (its own value carries the single-shot digest and no checkpoint).
    So each block lands in the cache once in a delta, and once in the
    final result.  Chaining is recursive-through-the-cache: a missing
    predecessor is recomputed via :func:`run_cached`, while the
    scheduled stage order makes that a pure cache hit in practice.
    """
    config = ForkSimConfig.from_dict(params["config"])
    upto = min(params["upto_day"], config.days)
    chunk_days = params["chunk_days"]
    if chunk_days < 1:
        raise ValueError("chunk_days must be >= 1")
    previous_uptos = range(chunk_days, upto, chunk_days)
    simulation = ForkSimulation(config, obs=_registry_obs(registry))
    summary = {"upto_day": upto, "chunk_days": chunk_days, "days": config.days}
    if upto < config.days:
        chained, blocks, tip = "", 0, None
        if previous_uptos:
            previous = run_cached(
                simulate_chunk_spec(config, previous_uptos[-1], chunk_days),
                cache,
            )
            chained, blocks = previous["digest"], previous["blocks"]
            tip = previous["checkpoint"].tip()
        segment = simulation.run(resume_from=tip, until_day=upto)
        chained += segment.digest()
        return dict(
            summary,
            digest=hashlib.sha256(chained.encode("ascii")).hexdigest(),
            blocks=blocks + len(segment.eth_trace) + len(segment.etc_trace),
            checkpoint=segment.checkpoint,
        )
    prefix = None
    if previous_uptos:
        prefix = ForkSimCheckpoint.stitch(
            run_cached(
                simulate_chunk_spec(config, previous, chunk_days), cache
            )["checkpoint"]
            for previous in previous_uptos
        )
    # The horizon is complete: publish the full result under the
    # single-shot key so figure/observation jobs hit it.
    result = simulation.run(resume_from=prefix)
    cache.store(simulate_spec(config).cache_key(), result)
    return dict(
        summary,
        digest=result.digest(),
        blocks=len(result.eth_trace) + len(result.etc_trace),
        checkpoint=None,
    )


@register_runner("partition", wants_registry=True)
def _run_partition(params: Dict[str, Any], cache, registry=None) -> PartitionResult:
    config = PartitionScenarioConfig(**params["config"])
    return PartitionScenario(config, obs=_registry_obs(registry)).run()


@register_runner("chaos-partition", wants_registry=True)
def _run_chaos_partition(
    params: Dict[str, Any], cache, registry=None
) -> PartitionResult:
    config = ChaosPartitionConfig(**params["config"])
    return PartitionScenario(config, obs=_registry_obs(registry)).run()


@register_runner("topology-partition", wants_registry=True)
def _run_topology_partition(
    params: Dict[str, Any], cache, registry=None
) -> PartitionResult:
    config = TopologyPartitionConfig(**params["config"])
    return PartitionScenario(config, obs=_registry_obs(registry)).run()


@register_runner("topology-infer", wants_registry=True)
def _run_topology_infer(
    params: Dict[str, Any], cache, registry=None
) -> TopologyInferenceResult:
    config = TopologyInferenceConfig(**params["config"])
    return TopologyInferenceScenario(config, obs=_registry_obs(registry)).run()


@register_runner("echoes")
def _run_echoes(params: Dict[str, Any], cache) -> EchoBundle:
    sim_config = ForkSimConfig.from_dict(params["sim"])
    result = run_cached(simulate_spec(sim_config), cache)
    detector, truth = replay_detector(result, params["replay_seed"])
    return EchoBundle(detector=detector, truth=truth)


@register_runner("figure")
def _run_figure(params: Dict[str, Any], cache) -> FigureData:
    sim_config = ForkSimConfig.from_dict(params["sim"])
    number = params["number"]
    result = run_cached(simulate_spec(sim_config), cache)
    if number == 4:
        bundle = run_cached(
            echoes_spec(sim_config, params["replay_seed"]), cache
        )
        return figure_4(result, bundle.detector)
    generators = {1: figure_1, 2: figure_2, 3: figure_3, 5: figure_5}
    return generators[number](result)


@register_runner("observations")
def _run_observations(params: Dict[str, Any], cache) -> List[Observation]:
    sim_config = ForkSimConfig.from_dict(params["sim"])
    result = run_cached(simulate_spec(sim_config), cache)
    partition = run_cached(
        partition_spec(PartitionScenarioConfig(**params["partition"])), cache
    )
    bundle = run_cached(echoes_spec(sim_config, params["replay_seed"]), cache)
    return evaluate_all(result, partition, bundle.detector)


@register_runner("fork-lengths")
def _run_fork_lengths(params: Dict[str, Any], cache) -> Tuple[Any, Any]:
    return compare_upgrade_forks()


@register_runner("obs-probe")
def _run_obs_probe(params: Dict[str, Any], cache) -> Dict[str, Any]:
    config_cls = ChaosPartitionConfig if params["chaos"] else PartitionScenarioConfig
    config = config_cls(**params["config"])
    obs = Observability.enabled()
    PartitionScenario(config, obs=obs).run()
    return {
        "metrics": obs.metrics.dumps(),
        "metrics_digest": obs.metrics.digest(),
        "trace_digest": obs.tracer.digest(),
        "events": obs.tracer.events_emitted,
    }


@register_runner("perf-probe")
def _run_perf_probe(params: Dict[str, Any], cache) -> Dict[str, Any]:
    from ..perf.reference import ReferenceForkSimulation

    config = ForkSimConfig.from_dict(params["config"])
    fast = run_fork_sim(config)
    reference = ReferenceForkSimulation(config).run()
    fast_digest = fast.digest()
    reference_digest = reference.digest()
    return {
        "fast_digest": fast_digest,
        "reference_digest": reference_digest,
        "digests_match": fast_digest == reference_digest,
        "blocks": len(fast.eth_trace.numbers) + len(fast.etc_trace.numbers),
    }


# --------------------------------------------------------------------------
# self-test kinds (used by the harness's own test suite; registered here
# so spawned workers — which re-import this module — know them too)


@register_runner("selftest-echo")
def _run_selftest_echo(params: Dict[str, Any], cache) -> Any:
    return params["value"]


@register_runner("selftest-sleep")
def _run_selftest_sleep(params: Dict[str, Any], cache) -> float:
    time.sleep(params["seconds"])
    return params["seconds"]


@register_runner("selftest-flaky")
def _run_selftest_flaky(params: Dict[str, Any], cache) -> int:
    """Fails the first ``fail_times`` attempts, succeeds after.

    Attempt counting uses a marker file so the count survives fresh
    worker processes — exactly the retry path the pool must handle.
    An optional ``sleep_seconds`` burns time *inside* each attempt, so
    the timeout tests can distinguish per-attempt deadlines from a
    cumulative one.
    """
    marker = params["marker_path"]
    try:
        with open(marker) as handle:
            attempts = int(handle.read().strip() or 0)
    except FileNotFoundError:
        attempts = 0
    attempts += 1
    with open(marker, "w") as handle:
        handle.write(str(attempts))
    if params.get("sleep_seconds"):
        time.sleep(params["sleep_seconds"])
    if attempts <= params["fail_times"]:
        raise RuntimeError(
            f"selftest-flaky failing on purpose (attempt {attempts})"
        )
    return attempts


@register_runner("selftest-killme")
def _run_selftest_killme(params: Dict[str, Any], cache) -> str:
    """SIGKILLs its own worker process on the first attempt.

    The crash-recovery regression: the first execution writes a marker
    (so the parent can see the job is live) and dies with ``kill -9`` —
    no exception, no pipe message, just a dead process.  The fresh
    worker the pool retries into finds the marker and returns the
    deterministic digest of the params, which must equal an in-process
    run of the same spec.  ``hang_seconds`` (default 30) keeps the first
    attempt alive long enough for external-kill variants of the test.
    """
    import os as _os
    import signal as _signal

    marker = params["marker_path"]
    if not _os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write(str(_os.getpid()))
        if params.get("suicide", True):
            _os.kill(_os.getpid(), _signal.SIGKILL)
        time.sleep(params.get("hang_seconds", 30.0))
    digest_payload = canonical_json({"value": params["value"]})
    return hashlib.sha256(digest_payload.encode("utf-8")).hexdigest()
