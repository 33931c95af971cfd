"""Canonical result summaries: what the service persists and serves.

A job's *value* (a :class:`~repro.sim.engine.ForkSimResult`, a
:class:`~repro.scenarios.partition_event.PartitionResult`, a figure...)
is a heavyweight Python object that lives in the harness's pickle cache.
The service instead exposes a **summary**: a JSON-able dict derived
deterministically from the value, dumped as canonical JSON (sorted keys,
no whitespace variance, NaN rejected) and fingerprinted with SHA-256.

That digest is the service's determinism contract: the same config run
through ``POST /jobs``, ``run-all``, or a bare ``execute_job`` must
produce byte-identical canonical summaries — the differential test in
``tests/test_serve_server.py`` holds the HTTP path to exactly this.

Summarizers are registered per result type; unknown types fall back to
(1) the object's own ``digest()`` method when it has one, (2) embedding
the value verbatim when it is already canonical-JSON-able, (3) a SHA-256
over the pickle bytes — deterministic for the repo's result types, whose
construction order is seeded (the same property the cache relies on).
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import asdict
from typing import Any, Callable, Dict, Type

from ..core.observations import Observation
from ..core.report import FigureData
from ..harness.jobs import EchoBundle, canonical_json
from ..scenarios.partition_event import PartitionResult
from ..sim.engine import ForkSimResult

__all__ = ["summarize", "summary_digest", "register_summarizer"]

_SUMMARIZERS: Dict[Type, Callable[[Any], Dict[str, Any]]] = {}


def register_summarizer(result_type: Type):
    """Decorator: install the summary builder for one result type."""

    def decorator(fn: Callable[[Any], Dict[str, Any]]):
        _SUMMARIZERS[result_type] = fn
        return fn

    return decorator


@register_summarizer(ForkSimResult)
def _summarize_fork_sim(value: ForkSimResult) -> Dict[str, Any]:
    return {
        "type": "ForkSimResult",
        "digest": value.digest(),
        "fork_number": value.fork_number,
        "fork_timestamp": value.fork_timestamp,
        "eth_blocks": len(value.eth_trace.numbers),
        "etc_blocks": len(value.etc_trace.numbers),
        "days": value.config.days,
        "seed": value.config.seed,
    }


@register_summarizer(PartitionResult)
def _summarize_partition(value: PartitionResult) -> Dict[str, Any]:
    summary: Dict[str, Any] = {
        "type": "PartitionResult",
        "config": asdict(value.config),
        "fork_time": value.fork_time,
        "handshake_refusals": value.handshake_refusals,
        "incompatible_disconnects": value.incompatible_disconnects,
        "node_loss_fraction": value.node_loss_fraction(),
        "minimum_etc_reachable": value.minimum_etc_reachable(),
        "snapshots": [asdict(snapshot) for snapshot in value.snapshots],
    }
    if value.robustness is not None:
        summary["robustness_digest"] = value.robustness.digest()
    return summary


@register_summarizer(FigureData)
def _summarize_figure(value: FigureData) -> Dict[str, Any]:
    return {
        "type": "FigureData",
        "figure_id": value.figure_id,
        "title": value.title,
        "series": sorted(value.series),
        "pickle_sha256": _pickle_digest(value),
    }


def _pickle_digest(value: Any) -> str:
    # Protocol pinned: the digest must not move when the interpreter's
    # default protocol does.
    return hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()


def _summarize_fallback(value: Any) -> Dict[str, Any]:
    type_name = type(value).__name__
    digest_method = getattr(value, "digest", None)
    if callable(digest_method):
        return {"type": type_name, "digest": digest_method()}
    try:
        canonical_json({"value": value})
    except (TypeError, ValueError):
        return {"type": type_name, "pickle_sha256": _pickle_digest(value)}
    return {"type": type_name, "value": value}


def summarize(kind: str, value: Any) -> Dict[str, Any]:
    """The canonical summary for one job result."""
    if isinstance(value, list) and value and all(
        isinstance(item, Observation) for item in value
    ):
        summary: Dict[str, Any] = {
            "type": "Observations",
            "observations": [asdict(item) for item in value],
        }
    elif isinstance(value, EchoBundle):
        summary = {
            "type": "EchoBundle",
            "records": value.detector.sightings,
            "pickle_sha256": _pickle_digest(value),
        }
    else:
        builder = _SUMMARIZERS.get(type(value), _summarize_fallback)
        summary = builder(value)
    summary["kind"] = kind
    return summary


def summary_digest(summary: Dict[str, Any]) -> str:
    """SHA-256 over the canonical-JSON rendering of a summary."""
    return hashlib.sha256(
        canonical_json(summary).encode("utf-8")
    ).hexdigest()
