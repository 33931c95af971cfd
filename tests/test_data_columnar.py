"""The analysis database: byte-identity against the record oracle.

``ColumnarChainDatabase`` answers the paper's aggregated queries over
zero-copy trace columns; ``ReferenceChainDatabase`` boxes every block
and answers the same queries block by block.  These tests pin the
contract the figure pipeline rests on: every aggregated query and every
downstream figure/observation artifact is *byte-identical* between the
public functions (which read ``result.to_database()``) and the same
functions run on ``reference_database(result)``, over multiple seeds
and horizons.
"""

import json
from bisect import bisect_left

import pytest

from repro.core.observations import evaluate_all
from repro.core.report import figure_1, figure_2, figure_3, figure_4, figure_5
from repro.data.columnar import ColumnarChainDatabase
from repro.perf.reference import reference_database
from repro.scenarios.replay_attack import replay_detector
from repro.sim.blockprod import ChainTrace
from repro.sim.engine import ForkSimConfig, ForkSimulation


CONFIGS = [
    ForkSimConfig(days=12, prefork_days=3, seed=11, with_transactions=True),
    ForkSimConfig(days=20, prefork_days=2, seed=42, with_transactions=False),
]

CHAINS = ("ETH", "ETC")

#: Every aggregated query, as called with an optional ``start_ts``.
AGGREGATED = (
    "blocks_per_hour",
    "daily_mean_difficulty",
    "hourly_mean_block_delta",
    "block_transactions_per_day",
    "block_contract_fraction_per_day",
    "daily_miner_counts",
)


@pytest.fixture(scope="module", params=[0, 1], ids=["12d-tx", "20d-notx"])
def result(request):
    return ForkSimulation(CONFIGS[request.param]).run()


@pytest.fixture(scope="module")
def backends(result):
    return reference_database(result), result.to_database()


def _obs_blob(observations):
    return json.dumps(
        [
            {
                "number": o.number,
                "claim": o.claim,
                "holds": o.holds,
                "details": {
                    key: value.hex() if isinstance(value, float) else value
                    for key, value in o.details.items()
                },
            }
            for o in observations
        ]
    )


class TestQueryParity:
    def test_chains(self, backends):
        record, columnar = backends
        for chain in CHAINS:
            assert columnar.blocks_per_hour(chain)
        for name in AGGREGATED:
            for chain in CHAINS:
                assert bool(getattr(record, name)(chain)) == (
                    bool(getattr(columnar, name)(chain))
                )
            # An unknown chain is empty on both, not an error.
            assert getattr(record, name)("missing") == {}
            assert getattr(columnar, name)("missing") == {}

    def test_series_queries(self, result, backends):
        record, columnar = backends
        fork = result.fork_timestamp
        for chain in CHAINS:
            for start in (None, fork):
                assert columnar.blocks_per_hour(chain, start) == (
                    record.blocks_per_hour(chain, start)
                )
            ts, diffs = columnar.timestamps_and_difficulties(chain)
            assert (list(ts), list(diffs)) == (
                record.timestamps_and_difficulties(chain)
            )

    def test_aggregated_queries_bitwise(self, result, backends):
        record, columnar = backends
        fork = result.fork_timestamp
        for chain in CHAINS:
            for start in (None, fork):
                rec = record.daily_mean_difficulty(chain, start)
                col = columnar.daily_mean_difficulty(chain, start)
                assert {k: v.hex() for k, v in rec.items()} == (
                    {k: v.hex() for k, v in col.items()}
                )
                rec = record.hourly_mean_block_delta(chain, start)
                col = columnar.hourly_mean_block_delta(chain, start)
                assert {k: v.hex() for k, v in rec.items()} == (
                    {k: v.hex() for k, v in col.items()}
                )
                assert columnar.block_transactions_per_day(chain, start) == (
                    record.block_transactions_per_day(chain, start)
                )
                rec = record.block_contract_fraction_per_day(chain, start)
                col = columnar.block_contract_fraction_per_day(chain, start)
                assert {k: v.hex() for k, v in rec.items()} == (
                    {k: v.hex() for k, v in col.items()}
                )

    def test_daily_miner_counts_order_and_values(self, backends):
        record, columnar = backends
        for chain in CHAINS:
            rec = record.daily_miner_counts(chain)
            col = columnar.daily_miner_counts(chain)
            assert rec == col
            # Counter equality ignores order, but most_common tie-breaks
            # depend on insertion order — pin it too.
            for day in rec:
                assert list(rec[day].items()) == list(col[day].items())

    def test_no_prefix_suffix_matches(self, result, backends):
        # Queries from the fork instant see exactly the post-fork
        # suffix, on both backends.
        record, columnar = backends
        fork = result.fork_timestamp
        for chain, trace in result.traces().items():
            suffix = len(trace) - bisect_left(trace.timestamps, fork)
            assert 0 < suffix < len(trace)
            for db in backends:
                assert sum(db.blocks_per_hour(chain, fork).values()) == suffix
            assert columnar.daily_miner_counts(chain, fork) == (
                record.daily_miner_counts(chain, fork)
            )


@pytest.fixture(scope="module")
def detector(result):
    return replay_detector(result)[0]


class TestFigurePipeline:
    def test_figures_byte_identical(
        self, result, backends, detector, tmp_path
    ):
        def figures(**db):
            return {
                1: figure_1(result, **db),
                2: figure_2(result, **db),
                3: figure_3(result, **db),
                4: figure_4(result, detector, **db),
                5: figure_5(result, **db),
            }

        oracle = figures(db=backends[0])
        for number, public in figures().items():
            assert list(public.series) == list(oracle[number].series)
            assert public.render() == oracle[number].render()
            assert public.notes == oracle[number].notes
            payloads = []
            for tag, fig in (("public", public), ("record", oracle[number])):
                path = tmp_path / f"f{number}-{tag}.csv"
                fig.write_csv(path)
                payloads.append(path.read_bytes())
            assert payloads[0] == payloads[1]

    def test_observations_identical(self, result, backends, detector):
        public = evaluate_all(result, detector=detector)
        oracle = evaluate_all(result, detector=detector, db=backends[0])
        assert [o.number for o in public] == [2, 3, 4, 5, 6]
        assert _obs_blob(public) == _obs_blob(oracle)
        assert [o.render() for o in public] == [o.render() for o in oracle]


class TestColumnarIngest:
    def test_adopt_rejects_duplicate_chain(self, result):
        db = ColumnarChainDatabase()
        db.adopt_trace(result.eth_trace)
        with pytest.raises(ValueError):
            db.adopt_trace(result.eth_trace)

    def test_adopted_trace_not_mutated_by_insert(self, result):
        # The columns are shared, not copied, so neither the queries nor
        # boxing the same trace into the oracle may touch them.
        trace = result.eth_trace
        before = [bytes(trace.timestamps), bytes(trace.difficulties),
                  bytes(trace.miner_ids), list(trace.miner_labels)]
        db = ColumnarChainDatabase()
        db.adopt_trace(trace)
        ts, diffs = db.timestamps_and_difficulties("ETH")
        assert ts is trace.timestamps and diffs is trace.difficulties
        answers = [getattr(db, name)("ETH") for name in AGGREGATED]
        reference_database(result)
        assert [getattr(db, name)("ETH") for name in AGGREGATED] == answers
        assert before == [bytes(trace.timestamps), bytes(trace.difficulties),
                          bytes(trace.miner_ids), list(trace.miner_labels)]


def test_unsorted_chain_rejected_by_every_query():
    """Only a hand-built trace can have unsorted timestamps; every
    aggregated query refuses it instead of bucketing it wrongly."""
    trace = ChainTrace("ETH")
    for number, timestamp in ((1, 100), (2, 4000), (3, 50)):
        trace.append(number, timestamp, 1000, "p", 2, 1)
    db = ColumnarChainDatabase()
    db.adopt_trace(trace)
    for name in AGGREGATED:
        for start in (None, 0):
            with pytest.raises(ValueError, match="not sorted"):
                getattr(db, name)("ETH", start)
    with pytest.raises(ValueError, match="not sorted"):
        db.timestamps_and_difficulties("ETH")
