"""Unit tests for repro.obs: metrics, tracer, spans, and the facade."""

import io
import json

import pytest

from repro.obs import (
    DEFAULT_RING_CAPACITY,
    MetricsRegistry,
    Observability,
    SpanProfile,
    TRACE_EVENT_KINDS,
    Tracer,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3.5)
        gauge.add(1.5)
        assert gauge.value == 5.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.counts == [2, 1, 1]  # <=1, <=10, overflow
        assert hist.mean() == pytest.approx((0.5 + 0.7 + 5.0 + 100.0) / 4)

    def test_empty_mean_is_zero(self):
        assert MetricsRegistry().histogram("h").mean() == 0.0

    @pytest.mark.parametrize(
        "value, bucket",
        [
            (-float("inf"), 0),
            (-5.0, 0),
            (1.0, 0),  # exactly on a bound: that bound's bucket
            (1.0000001, 1),
            (2.5, 1),
            (10.0, 1),
            (10.5, 2),
            (60.0, 2),
            (60.0000001, 3),  # above the last bound: overflow
            (float("inf"), 3),
        ],
    )
    def test_bucket_is_first_bound_not_below_value(self, value, bucket):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0, 60.0))
        hist.observe(value)
        expected = [0, 0, 0, 0]
        expected[bucket] = 1
        assert hist.counts == expected

    def test_nan_rejected_without_side_effects(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.observe(float("nan"))
        assert (hist.count, hist.total, hist.counts) == (0, 0.0, [0, 0])

    def test_rebuckets_must_match(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))


class TestMetricsRegistry:
    def test_cross_type_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError):
            registry.gauge("name")
        with pytest.raises(ValueError):
            registry.histogram("name")

    def test_dump_is_sorted_and_canonical(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc(1)
        registry.gauge("z").set(1.5)
        dump = registry.dump()
        assert list(dump["counters"]) == ["a", "b"]
        # dumps() must be canonical JSON: re-encoding the parsed dump
        # with the same settings reproduces it byte for byte.
        text = registry.dumps()
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )

    def test_same_recording_same_digest(self):
        def record(registry):
            registry.counter("events").inc(7)
            registry.gauge("depth").set(2.0)
            registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)

        a, b = MetricsRegistry(), MetricsRegistry()
        record(a)
        record(b)
        assert a.digest() == b.digest()
        a.counter("events").inc()
        assert a.digest() != b.digest()

    def test_summary_none_when_empty(self):
        assert MetricsRegistry().summary() is None
        registry = MetricsRegistry()
        registry.counter("x").inc()
        summary = registry.summary()
        assert summary["counters"] == {"x": 1}
        assert summary["digest"] == registry.digest()


class TestTracer:
    def test_emits_canonical_lines_to_ring_and_sink(self):
        sink = io.StringIO()
        tracer = Tracer(capacity=8, sink=sink)
        tracer.emit(1.5, "msg.send", src="a", dst="b")
        events = tracer.tail()
        assert events == [{"t": 1.5, "kind": "msg.send",
                           "src": "a", "dst": "b"}]
        line = sink.getvalue().strip()
        assert json.loads(line)["kind"] == "msg.send"
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )

    def test_ring_evicts_but_digest_covers_everything(self):
        small = Tracer(capacity=2)
        big = Tracer(capacity=1000)
        for i in range(10):
            small.emit(float(i), "event.fired", seq=i)
            big.emit(float(i), "event.fired", seq=i)
        assert len(small.tail()) == 2
        assert small.tail()[-1]["seq"] == 9
        # Retention differs; the stream fingerprint must not.
        assert small.digest() == big.digest()
        assert small.events_emitted == 10

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        unbounded = Tracer(capacity=None)
        unbounded.emit(0.0, "reorg")
        assert len(unbounded.tail()) == 1

    def test_nan_fields_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.emit(0.0, "msg.send", delay=float("nan"))

    def test_summary_counts_by_kind(self):
        tracer = Tracer()
        tracer.emit(0.0, "msg.send")
        tracer.emit(1.0, "msg.send")
        tracer.emit(2.0, "msg.lost")
        summary = tracer.summary()
        assert summary["events"] == 3
        assert summary["by_kind"] == {"msg.lost": 1, "msg.send": 2}
        assert summary["digest"] == tracer.digest()

    def test_taxonomy_is_closed_and_prefixed(self):
        assert len(TRACE_EVENT_KINDS) == len(set(TRACE_EVENT_KINDS))
        for kind in TRACE_EVENT_KINDS:
            prefix = kind.split(".", 1)[0]
            assert prefix in ("event", "msg", "block", "reorg", "fault")


class TestSpanProfile:
    def test_records_totals_counts_maxima(self):
        profile = SpanProfile()
        with profile.span("work"):
            pass
        with profile.span("work"):
            pass
        assert profile.counts["work"] == 2
        assert profile.totals["work"] >= 0.0
        assert profile.maxima["work"] <= profile.totals["work"]
        dump = profile.dump()
        assert dump["work"]["count"] == 2

    def test_report_ranks_by_total(self):
        profile = SpanProfile()
        profile._record("slow", 2.0)
        profile._record("fast", 0.1)
        report = profile.report()
        assert report.index("slow") < report.index("fast")

    def test_empty_report(self):
        assert "no spans" in SpanProfile().report()


class TestObservability:
    def test_enabled_builds_all_three(self):
        obs = Observability.enabled()
        assert obs.metrics is not None
        assert obs.tracer is not None
        assert obs.profile is not None
        assert obs.tracer._ring.maxlen == DEFAULT_RING_CAPACITY

    def test_span_without_profile_is_noop(self):
        obs = Observability(metrics=MetricsRegistry())
        with obs.span("anything"):
            pass  # must not raise, must not record anywhere

    def test_partial_bundles(self):
        metrics_only = Observability(metrics=MetricsRegistry())
        assert metrics_only.tracer is None
        tracer_only = Observability(tracer=Tracer())
        assert tracer_only.metrics is None
