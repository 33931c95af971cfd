"""Discrete-event engine: ordering, cancellation, determinism."""

import heapq
import random

import pytest

from repro.net.simulator import SimulationError, Simulator
from repro.obs import MetricsRegistry, Observability
from repro.perf.reference import ReferenceSimulator

#: The hot-loop engine and the seed-state one it must match event for
#: event.
ENGINES = [Simulator, ReferenceSimulator]


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, log.append, "c")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(2.0, log.append, "b")
        sim.run_all()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_run_fifo(self):
        sim = Simulator()
        log = []
        for tag in "abc":
            sim.schedule(1.0, log.append, tag)
        sim.run_all()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run_all()
        assert seen == [5.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start_time=100.0)
        seen = []
        sim.schedule_at(150.0, lambda: seen.append(sim.now))
        sim.run_all()
        assert seen == [150.0]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run_all()
        assert log == [("first", 1.0), ("second", 3.0)]


class TestRunUntil:
    def test_stops_at_boundary(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "in")
        sim.schedule(10.0, log.append, "out")
        sim.run_until(5.0)
        assert log == ["in"]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_boundary_event_included(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, log.append, "edge")
        sim.run_until(5.0)
        assert log == ["edge"]

    def test_event_storm_guard(self):
        sim = Simulator()

        def rebound():
            sim.schedule(0.001, rebound)

        sim.schedule(0.0, rebound)
        with pytest.raises(SimulationError):
            sim.run_until(100.0, max_events=50)

    def test_exactly_max_events_is_allowed(self):
        # Regression for the off-by-one: a run needing exactly
        # max_events events must complete, not raise.
        sim = Simulator()
        log = []
        for index in range(5):
            sim.schedule(float(index), log.append, index)
        assert sim.run_until(10.0, max_events=5) == 5
        assert log == [0, 1, 2, 3, 4]

    def test_one_past_max_events_raises(self):
        sim = Simulator()
        for index in range(6):
            sim.schedule(float(index), lambda: None)
        with pytest.raises(SimulationError):
            sim.run_until(10.0, max_events=5)

    def test_cancelled_events_do_not_consume_budget(self):
        sim = Simulator()
        log = []
        for _ in range(5):
            sim.schedule(1.0, log.append, "dead").cancel()
        sim.schedule(2.0, log.append, "live")
        assert sim.run_until(10.0, max_events=1) == 1
        assert log == ["live"]

    def test_run_all_exact_budget(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        assert sim.run_all(max_events=4) == 4
        sim2 = Simulator()
        for _ in range(5):
            sim2.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim2.run_all(max_events=4)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, log.append, "x")
        handle.cancel()
        sim.run_all()
        assert log == []

    def test_cancel_mid_run(self):
        sim = Simulator()
        log = []
        later = sim.schedule(2.0, log.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run_all()
        assert log == []

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run_all()
        assert sim.events_processed == 5


class TestEdgeCases:
    def test_schedule_at_in_past_clamps_to_now(self):
        sim = Simulator(start_time=100.0)
        seen = []
        sim.schedule_at(50.0, lambda: seen.append(sim.now))
        sim.run_all()
        assert seen == [100.0]

    def test_pending_counts_cancelled_until_drained(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(3)]
        handles[1].cancel()
        assert sim.pending == 3
        sim.run_all()
        assert sim.pending == 0

    def test_fifo_order_survives_cancellation(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a")
        doomed = sim.schedule(1.0, log.append, "b")
        sim.schedule(1.0, log.append, "c")
        doomed.cancel()
        sim.run_all()
        assert log == ["a", "c"]

    def test_cancelled_events_not_counted_processed(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        assert sim.run_until(5.0) == 1
        assert sim.events_processed == 1


class TestScheduleValidation:
    """NaN/infinity rejection (regression tests).

    NaN is the insidious one: it loses every comparison, so a NaN-timed
    heap entry silently breaks the heap invariant and events start
    firing out of order — and ``max(0.0, nan)`` in ``schedule_at``'s
    clamp would convert a poisoned timestamp into an immediate event.
    Both must be loud errors instead.
    """

    @pytest.mark.parametrize(
        "delay", [float("nan"), float("inf"), -1.0, -0.001]
    )
    def test_schedule_rejects_nonfinite_and_negative_delays(self, delay):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)
        assert sim.pending == 0

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_schedule_at_rejects_nonfinite_times(self, time):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(time, lambda: None)
        assert sim.pending == 0

    def test_rejected_delay_leaves_trajectory_intact(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), fired.append, "poison")
        sim.schedule(2.0, fired.append, "b")
        sim.run_all()
        assert fired == ["a", "b"]


class _Recipient:
    """A stand-in node: deliveries fire as ``recipient.receive(message)``."""

    def __init__(self, log, sim):
        self.log = log
        self.sim = sim

    def receive(self, message):
        self.log.append((self.sim.now, message))


def push_delivery(sim, delay, node, message):
    """Queue a handle-free delivery exactly as the network's inline send
    paths do: a ``(time, seq, node, message)`` heap entry."""
    heapq.heappush(
        sim._queue, (sim.now + delay, next(sim._sequence), node, message)
    )


class TestDeliveryEntries:
    """Handle-free ``(time, seq, node, message)`` entries next to the
    ``(time, seq, handle)`` entries of scheduled callbacks."""

    def make(self):
        sim = Simulator()
        log = []
        return sim, log, _Recipient(log, sim)

    def test_deliveries_and_timers_fire_in_seq_order_at_one_time(self):
        sim, log, node = self.make()
        push_delivery(sim, 1.0, node, "d0")
        sim.schedule(1.0, lambda: log.append((sim.now, "t1")))
        push_delivery(sim, 1.0, node, "d2")
        sim.schedule(1.0, lambda: log.append((sim.now, "t3")))
        push_delivery(sim, 0.5, node, "early")
        assert sim.run_until(2.0) == 5
        assert log == [
            (0.5, "early"),
            (1.0, "d0"),
            (1.0, "t1"),
            (1.0, "d2"),
            (1.0, "t3"),
        ]
        assert sim.events_processed == 5

    def test_cancelled_timer_between_deliveries_is_skipped(self):
        sim, log, node = self.make()
        push_delivery(sim, 1.0, node, "a")
        sim.schedule(1.0, log.append, "dead").cancel()
        push_delivery(sim, 1.0, node, "b")
        assert sim.run_until(5.0) == 2
        assert log == [(1.0, "a"), (1.0, "b")]
        assert sim.events_processed == 2

    def test_receive_is_looked_up_when_the_delivery_fires(self):
        sim, log, node = self.make()
        push_delivery(sim, 1.0, node, "m")
        node.receive = lambda message: log.append(("swapped", message))
        sim.run_all()
        assert log == [("swapped", "m")]

    def test_step_fires_delivery_entries(self):
        sim, log, node = self.make()
        push_delivery(sim, 2.0, node, "second")
        push_delivery(sim, 1.0, node, "first")
        assert sim.step()
        assert log == [(1.0, "first")]
        assert sim.now == 1.0 and sim.events_processed == 1
        assert sim.step()
        assert not sim.step()
        assert log == [(1.0, "first"), (2.0, "second")]

    def test_run_all_counts_deliveries_and_guards_them(self):
        sim, log, node = self.make()
        for index in range(3):
            push_delivery(sim, float(index), node, index)
        assert sim.run_all(max_events=3) == 3
        for index in range(4):
            push_delivery(sim, float(index), node, index)
        with pytest.raises(SimulationError):
            sim.run_all(max_events=3)

    def test_run_all_stops_when_only_cancelled_timers_remain(self):
        sim, log, node = self.make()
        push_delivery(sim, 1.0, node, "live")
        sim.schedule(2.0, log.append, "dead").cancel()
        assert sim.run_all(max_events=1) == 1
        assert log == [(1.0, "live")]
        assert sim.pending == 0

    def test_max_events_guard_keeps_over_budget_delivery_queued(self):
        sim, log, node = self.make()
        push_delivery(sim, 1.0, node, "a")
        push_delivery(sim, 2.0, node, "b")
        push_delivery(sim, 3.0, node, "c")
        with pytest.raises(SimulationError):
            sim.run_until(10.0, max_events=2)
        assert log == [(1.0, "a"), (2.0, "b")]
        assert sim.events_processed == 2
        assert sim.pending == 1
        assert sim.run_until(10.0) == 1
        assert log[-1] == (3.0, "c")

    def test_max_events_guard_inside_a_tie_run(self):
        sim, log, node = self.make()
        for tag in "abc":
            push_delivery(sim, 1.0, node, tag)
        with pytest.raises(SimulationError):
            sim.run_until(10.0, max_events=2)
        assert [message for _, message in log] == ["a", "b"]
        assert sim.pending == 1

    def test_max_events_guard_skips_cancelled_timers(self):
        sim, log, node = self.make()
        sim.schedule(1.0, log.append, "dead").cancel()
        push_delivery(sim, 1.0, node, "live")
        assert sim.run_until(10.0, max_events=1) == 1
        assert log == [(1.0, "live")]

    def test_observed_loop_fires_and_traces_deliveries(self):
        from repro.obs import MetricsRegistry, Observability, Tracer

        registry = MetricsRegistry()
        tracer = Tracer()
        sim = Simulator(obs=Observability(metrics=registry, tracer=tracer))
        log = []
        node = _Recipient(log, sim)
        push_delivery(sim, 1.0, node, "m")
        sim.schedule(1.0, log.append, "dead").cancel()
        sim.schedule(1.5, lambda: log.append((sim.now, "t")))
        assert sim.run_until(2.0) == 2
        assert log == [(1.0, "m"), (1.5, "t")]
        assert registry.counter("sim.events.fired").value == 2
        assert registry.counter("sim.events.cancelled").value == 1
        fired = [e for e in tracer.tail() if e["kind"] == "event.fired"]
        assert [(e["seq"], e["fn"]) for e in fired] == [
            (0, "_Recipient.receive"),
            (2, "TestDeliveryEntries.test_observed_loop_fires_and_traces_"
                "deliveries.<locals>.<lambda>"),
        ]


def run_storm(engine, seed, cap=2500, obs=None):
    """A deterministic, self-scheduling storm with ties and cancels.

    The RNG is consumed only inside callbacks, in firing order — so two
    engines stay in lockstep exactly as long as they fire identically,
    and any ordering divergence snowballs into a different log.
    """
    sim = engine(obs=obs)
    rng = random.Random(seed)
    log = []
    cancellable = []

    def spawn(label):
        def callback():
            log.append((sim.now, label))
            if len(log) >= cap:
                return
            u = rng.random()
            if u < 0.30:
                # Same-timestamp burst: three FIFO ties.
                delay = rng.random() * 2.0
                for i in range(3):
                    cancellable.append(
                        sim.schedule(delay, spawn(label * 7 + i + 1))
                    )
            elif u < 0.62:
                sim.schedule(rng.random() * 5.0, spawn(label + 101))
            elif u < 0.72 and cancellable:
                cancellable.pop(rng.randrange(len(cancellable))).cancel()
            elif u < 0.76:
                # Rejected delays must not consume queue state.
                with pytest.raises(SimulationError):
                    sim.schedule(float("nan"), callback)
            elif u < 0.80:
                sim.schedule(25.0 + rng.random() * 100.0, spawn(label + 977))
        return callback

    for i in range(40):
        cancellable.append(sim.schedule(rng.random() * 10.0, spawn(i)))
    processed = [sim.run_until(horizon)
                 for horizon in (6.0, 6.0, 21.5, 80.0, 400.0)]
    processed.append(sim.run_all())
    return log, processed, sim.events_processed, sim.now, sim.pending


class TestEngineParity:
    """The hot loop and :class:`ReferenceSimulator` fire identically."""

    @pytest.mark.parametrize("seed", [1, 7, 23, 1016])
    def test_randomized_storms_agree(self, seed):
        assert run_storm(Simulator, seed) == run_storm(ReferenceSimulator, seed)

    @pytest.mark.parametrize("seed", [3, 44])
    def test_obs_streams_identical(self, seed):
        def observed(engine):
            obs = Observability.enabled()
            run_storm(engine, seed, cap=600, obs=obs)
            return obs.tracer.digest(), obs.metrics.digest()

        assert observed(Simulator) == observed(ReferenceSimulator)

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    def test_fifo_among_equal_timestamps(self, engine):
        """Ties fire in schedule order, including a tie scheduled from
        inside the running tie."""
        sim = engine()
        log = []

        def tick(tag):
            log.append((sim.now, tag))
            if tag == "a0":
                sim.schedule(0.0, lambda: log.append((sim.now, "nested")))

        for i in range(6):
            sim.schedule(1.0, lambda i=i: tick(f"a{i}"))
            sim.schedule(1.0 + 1e-12, lambda i=i: tick(f"b{i}"))
        sim.run_all()
        assert log == (
            [(1.0, f"a{i}") for i in range(6)]
            + [(1.0, "nested")]
            + [(1.0 + 1e-12, f"b{i}") for i in range(6)]
        )

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    def test_horizon_pause_then_earlier_schedule(self, engine):
        """After a horizon pause, a schedule earlier than everything
        queued still fires first."""
        sim = engine()
        log = []
        sim.schedule(10.0, lambda: log.append("late"))
        sim.run_until(2.0)
        sim.schedule(1.0, lambda: log.append("early"))  # t=3.0 < 10.0
        sim.run_all()
        assert log == ["early", "late"]

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    def test_max_events_raises_and_resumes(self, engine):
        sim = engine()
        fired = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        with pytest.raises(SimulationError):
            sim.run_until(100.0, max_events=4)
        # The budgeted entries fired; the rest are still queued.
        assert fired == [0, 1, 2, 3]
        assert sim.run_until(100.0) == 6
        assert sim.events_processed == 10

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    def test_step_drains_cancelled_and_dispatches(self, engine):
        sim = engine()
        fired = []
        sim.schedule(1.0, lambda: fired.append("keep"))
        for _ in range(3):
            sim.schedule(0.5, lambda: fired.append("dead")).cancel()
        steps = []
        while sim.step():
            steps.append(sim.now)
        assert (fired, steps, sim.events_processed, sim.pending) == (
            ["keep"], [1.0], 1, 0
        )

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    def test_run_all_budget_ignores_cancelled_tail(self, engine):
        sim = engine()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.schedule(9.0, lambda: None).cancel()
        assert (sim.run_all(max_events=5), sim.pending) == (5, 0)

    @pytest.mark.parametrize(
        "delay", [-1.0, float("nan"), float("inf"), -float("inf")]
    )
    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    def test_bad_delays_rejected(self, engine, delay):
        sim = engine()
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)
        assert sim.pending == 0


def metered(engine):
    """An engine with a metrics-only bundle (no tracer, no profile)."""
    registry = MetricsRegistry()
    return engine(obs=Observability(metrics=registry)), registry


def deliver(sim, delay, node, message):
    """A delivery as each engine's network queues it: a handle-free
    heap entry on the fast engine, a scheduled ``receive`` on the
    reference one."""
    if type(sim) is Simulator:
        push_delivery(sim, delay, node, message)
    else:
        sim.schedule(delay, node.receive, message)


class TestTallyCounters:
    """``sim.events.*`` are published from the engine's own tallies when
    a run returns; after every run they must read exactly what the
    reference engine's per-event increments read."""

    @staticmethod
    def script(sim):
        """Yield after each run; pushes, cancels and deliveries happen
        between runs as well as inside them."""
        log = []
        node = _Recipient(log, sim)
        for i in range(4):
            deliver(sim, 1.0, node, f"d{i}")
        dead = []
        # Cancels a later entry of its own tie run.
        sim.schedule(1.0, lambda: dead[2].cancel())
        dead.extend(sim.schedule(1.0, log.append, "dead") for _ in range(3))
        dead[0].cancel()
        sim.schedule(1.0, lambda: deliver(sim, 0.0, node, "tie"))
        yield sim.run_until(1.0)
        # Pushes made between runs count at the next flush.
        sim.schedule(2.0, log.append, "late")
        sim.schedule(2.5, log.append, "gone").cancel()
        deliver(sim, 3.0, node, "d-late")
        yield sim.run_until(2.0)
        yield sim.step()
        # A tie run with a cancelled entry, on the budgeted loop.
        sim.schedule(1.0, log.append, "a")
        sim.schedule(1.0, log.append, "b").cancel()
        yield sim.run_until(10.0, max_events=5)
        sim.schedule(1.0, log.append, "x").cancel()
        sim.schedule(2.0, log.append, "y")
        yield sim.run_all()
        yield sim.step()

    def test_counters_exact_after_every_run(self):
        fast, fast_registry = metered(Simulator)
        reference, ref_registry = metered(ReferenceSimulator)
        for a, b in zip(self.script(fast), self.script(reference)):
            assert a == b
            assert fast_registry.dump() == ref_registry.dump()
            assert fast.events_processed == reference.events_processed
            assert fast.pending == reference.pending
        counters = fast_registry.dump()["counters"]
        assert counters["sim.events.cancelled"] == 5
        assert counters["sim.events.scheduled"] == (
            counters["sim.events.fired"] + counters["sim.events.cancelled"]
        )

    def test_two_simulators_share_one_registry(self):
        def shared(engine):
            obs = Observability(metrics=MetricsRegistry())
            first, second = (self.script(engine(obs=obs)) for _ in range(2))
            for _ in zip(first, second):  # interleave the two engines' runs
                pass
            return obs.metrics.dump()

        assert shared(Simulator) == shared(ReferenceSimulator)

    @pytest.mark.parametrize("seed", [3, 44])
    def test_metrics_only_storm_matches_reference(self, seed):
        def observed(engine):
            obs = Observability(metrics=MetricsRegistry())
            run_storm(engine, seed, cap=600, obs=obs)
            return obs.metrics.dump()

        assert observed(Simulator) == observed(ReferenceSimulator)

    @pytest.mark.parametrize(
        "run",
        [
            lambda sim: sim.run_until(5.0),
            lambda sim: sim.run_until(5.0, max_events=10),
            lambda sim: [sim.step() for _ in range(3)],
            lambda sim: sim.run_all(),
        ],
        ids=["run_until", "budgeted", "step", "run_all"],
    )
    @pytest.mark.parametrize("at", [1.0, 1.5], ids=["in-tie", "alone"])
    def test_raising_callback_is_counted(self, run, at):
        """A callback that raises has fired: it is counted before it is
        dispatched, as the reference engine counts it."""

        def build(engine):
            sim, registry = metered(engine)
            sim.schedule(1.0, lambda: None)
            sim.schedule(at, lambda: 1 / 0)
            sim.schedule(2.0, lambda: None)
            with pytest.raises(ZeroDivisionError):
                run(sim)
            return sim.events_processed, sim.pending, registry.dump()

        fast, reference = build(Simulator), build(ReferenceSimulator)
        assert fast == reference
        assert fast[0] == 2
