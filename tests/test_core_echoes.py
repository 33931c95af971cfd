"""Echo (rebroadcast) detection — Figure 4's machinery."""

import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive_echo import naive_echo_join
from repro.core.echoes import EchoDetector, EchoReport
from repro.core.timeseries import TimeSeries
from repro.data.records import TxRecord
from repro.data.windows import DAY
from repro.scenarios.replay_attack import ReplayWorkload, ReplayWorkloadConfig

#: Every (destination, same-time) filter the daily-count kernel takes.
FILTERS = [
    (chain, same_time)
    for chain in (None, "ETH", "ETC")
    for same_time in (None, True, False)
]


def sighting(chain, tx_hash, timestamp, **kwargs):
    return TxRecord(
        chain=chain, tx_hash=tx_hash, block_number=0, timestamp=timestamp,
        sender=b"\x01" * 20, to=b"\x02" * 20, value=1,
        is_contract=False, replay_protected=False, **kwargs
    )


def kernel_view(detector):
    """Daily counts per filter, direction totals and per-chain echo
    lists, as the detector's column kernels compute them."""
    return (
        {
            (chain, same_time): Counter(
                {t // DAY: v
                 for t, v in detector.daily_counts(chain, same_time)}
            )
            for chain, same_time in FILTERS
        },
        detector.direction_totals(),
        [
            sorted(
                detector.echoes_into(chain, with_same_time),
                key=lambda e: e.tx_hash,
            )
            for chain in ("ETH", "ETC")
            for with_same_time in (True, False)
        ],
    )


def oracle_view(echoes):
    """:func:`kernel_view`, recomputed from a plain list of echoes."""
    return (
        {
            (chain, same_time): Counter(
                e.echo_timestamp // DAY
                for e in echoes
                if chain in (None, e.echo_chain)
                and same_time in (None, e.same_time)
            )
            for chain, same_time in FILTERS
        },
        Counter((e.origin_chain, e.echo_chain) for e in echoes),
        [
            sorted(
                (e for e in echoes
                 if e.echo_chain == chain
                 and (with_same_time or not e.same_time)),
                key=lambda e: e.tx_hash,
            )
            for chain in ("ETH", "ETC")
            for with_same_time in (True, False)
        ],
    )


class TestDetector:
    def test_duplicate_across_chains_is_an_echo(self):
        detector = EchoDetector()
        assert detector.observe("ETH", b"h1", 100) is None
        echo = detector.observe("ETC", b"h1", 5000 + DAY)
        assert echo is not None
        assert echo.origin_chain == "ETH"
        assert echo.echo_chain == "ETC"
        assert not echo.same_time

    def test_same_chain_duplicate_is_not_an_echo(self):
        detector = EchoDetector()
        detector.observe("ETH", b"h1", 100)
        assert detector.observe("ETH", b"h1", 200) is None

    def test_direction_follows_first_sighting(self):
        detector = EchoDetector()
        detector.observe("ETC", b"h1", 100)
        echo = detector.observe("ETH", b"h1", 100 + 2 * DAY)
        assert (echo.origin_chain, echo.echo_chain) == ("ETC", "ETH")

    def test_same_time_window_classification(self):
        detector = EchoDetector(same_time_window=3600)
        detector.observe("ETH", b"h1", 100)
        echo = detector.observe("ETC", b"h1", 200)
        assert echo.same_time
        detector.observe("ETH", b"h2", 100)
        echo2 = detector.observe("ETC", b"h2", 100 + 7200)
        assert not echo2.same_time

    def test_repeat_sightings_reported_once(self):
        detector = EchoDetector()
        detector.observe("ETH", b"h1", 100)
        assert detector.observe("ETC", b"h1", 200) is not None
        assert detector.observe("ETC", b"h1", 300) is None
        assert len(detector.echoes) == 1

    def test_lag_recorded(self):
        detector = EchoDetector()
        detector.observe("ETH", b"h1", 100)
        echo = detector.observe("ETC", b"h1", 500)
        assert echo.lag_seconds == 400

    def test_daily_counts_series(self):
        detector = EchoDetector()
        for index, offset in enumerate([0, 0, DAY]):
            tx_hash = bytes([index]) * 4
            detector.observe("ETH", tx_hash, offset + 10)
            detector.observe("ETC", tx_hash, offset + 20)
        series = detector.daily_counts(chain="ETC")
        assert series.values == [2.0, 1.0]

    def test_direction_totals(self):
        detector = EchoDetector()
        detector.observe("ETH", b"a", 0)
        detector.observe("ETC", b"a", 1)
        detector.observe("ETH", b"b", 0)
        detector.observe("ETC", b"b", 1)
        detector.observe("ETC", b"c", 0)
        detector.observe("ETH", b"c", 1)
        totals = detector.direction_totals()
        assert totals[("ETH", "ETC")] == 2
        assert totals[("ETC", "ETH")] == 1
        # Keys iterate in first-detection order: not sorted by chain
        # name (above), nor by chain code (ETH is seen first below).
        assert list(totals) == [("ETH", "ETC"), ("ETC", "ETH")]
        later = EchoDetector()
        later.observe("ETH", b"x", 0)
        later.observe("ETC", b"c", 0)
        later.observe("ETH", b"c", 1)
        later.observe("ETH", b"a", 2)
        later.observe("ETC", b"a", 3)
        assert list(later.direction_totals()) == [
            ("ETC", "ETH"), ("ETH", "ETC"),
        ]

    def test_observe_records_stream(self):
        detector = EchoDetector()
        records = [
            sighting("ETH", b"x", 100),
            sighting("ETC", b"x", 300),
            sighting("ETC", b"y", 400),
        ]
        assert detector.observe_records(records) == 1
        assert detector.sightings == 3


class TestEchoReport:
    def test_percentage_uses_chain_totals(self):
        detector = EchoDetector()
        detector.observe("ETH", b"a", 10)
        detector.observe("ETC", b"a", 20)
        # 1 echo on a day with 4 total ETC transactions = 25%.
        totals = TimeSeries([0], [4.0])
        report = EchoReport.build(detector, "ETC", totals)
        assert report.percent_of_transactions.values == [25.0]

    def test_days_without_totals_skipped(self):
        detector = EchoDetector()
        detector.observe("ETH", b"a", 10)
        detector.observe("ETC", b"a", 20)
        report = EchoReport.build(detector, "ETC", TimeSeries([], []))
        assert report.percent_of_transactions.is_empty()


class TestAgainstNaiveBaseline:
    """The streaming detector and the two-pass join must agree exactly."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["ETH", "ETC"]),
                st.integers(min_value=0, max_value=30),   # hash id
                st.integers(min_value=0, max_value=10 * DAY),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_on_random_streams(self, events):
        records = [
            sighting(chain, bytes([h]) * 4, ts) for chain, h, ts in events
        ]
        # Attribution on *equal* timestamps is inherently ambiguous (the
        # "same time" class exists for this reason); fix the feed order
        # deterministically so both detectors break ties the same way.
        records.sort(key=lambda r: (r.timestamp, r.chain))

        detector = EchoDetector()
        detector.observe_records(records)
        streaming = {
            (e.tx_hash, e.echo_chain): (e.origin_chain, e.same_time)
            for e in detector.echoes
        }
        naive = {
            (e.tx_hash, e.echo_chain): (e.origin_chain, e.same_time)
            for e in naive_echo_join(records)
        }
        # The streaming detector attributes by first *feed order*, the
        # naive join by minimum timestamp; on a time-sorted stream with
        # distinct timestamps they agree on the full echo set.
        assert set(streaming) == set(naive)
        # The column kernels aggregate exactly what the join found.
        assert kernel_view(detector) == oracle_view(naive_echo_join(records))

    def test_known_example_identical(self):
        records = [
            sighting("ETH", b"a", 100),
            sighting("ETC", b"a", 50_000 + DAY),
            sighting("ETC", b"b", 10),
            sighting("ETH", b"b", 600),
            sighting("ETH", b"c", 5),
        ]
        records.sort(key=lambda r: r.timestamp)
        detector = EchoDetector()
        detector.observe_records(records)
        naive = naive_echo_join(records)
        assert len(detector.echoes) == len(naive) == 2
        for mine, theirs in zip(
            sorted(detector.echoes, key=lambda e: e.tx_hash),
            sorted(naive, key=lambda e: e.tx_hash),
        ):
            assert mine == theirs


class TestPickledDetector:
    """A pickled detector resumes as if it had never stopped."""

    @pytest.fixture(scope="class")
    def records(self):
        workload = ReplayWorkload(ReplayWorkloadConfig(days=12, seed=7))
        records, _ = workload.generate([4_000.0] * 12, [1_500.0] * 12)
        return records

    @staticmethod
    def answers(detector):
        return (
            detector.echoes,
            [
                (series.timestamps, series.values, series.name)
                for series in (
                    detector.daily_counts(chain, same_time)
                    for chain, same_time in FILTERS
                )
            ],
            list(detector.direction_totals().items()),
            detector.sightings,
        )

    @pytest.mark.parametrize("fraction", [0.0, 0.37, 1.0])
    def test_resume_after_unpickling_matches_uninterrupted(
        self, records, fraction
    ):
        whole = EchoDetector()
        whole.observe_records(records)

        k = int(len(records) * fraction)
        first = EchoDetector()
        first.observe_records(records[:k])
        resumed = pickle.loads(pickle.dumps(first))
        resumed.observe_records(records[k:])

        assert self.answers(resumed) == self.answers(whole)
        assert pickle.dumps(resumed) == pickle.dumps(whole)

    def test_loaded_detector_answers_and_repickles_identically(self, records):
        detector = EchoDetector()
        detector.observe_records(records)
        blob = pickle.dumps(detector)
        loaded = pickle.loads(blob)
        assert self.answers(loaded) == self.answers(detector)
        assert pickle.dumps(loaded) == blob

    def test_hashes_of_any_length_survive(self):
        hashes = [b"a", b"\x00" * 40, b"mid-size"]
        detector = EchoDetector()
        for tx_hash in hashes:
            detector.observe("ETH", tx_hash, 10)
            detector.observe("ETC", tx_hash, 20)
        loaded = pickle.loads(pickle.dumps(detector))
        assert loaded.observe("ETC", b"a", 30) is None  # already reported
        assert [e.tx_hash for e in loaded.echoes] == hashes

