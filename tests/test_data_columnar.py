"""The columnar analytics backend: byte-identity against the record oracle.

``ColumnarChainDatabase`` exposes the exact ``ChainDatabase`` query
surface over zero-copy trace columns.  These tests pin the contract the
figure pipeline rests on: every query — boxed-record and aggregated
alike — and every downstream figure/observation artifact is
*byte-identical* between the public functions (which read the columnar
database) and the same functions run on the record database, over
multiple seeds and horizons.
"""

import json

import pytest

from repro.core.echoes import EchoDetector
from repro.core.observations import evaluate_all
from repro.core.report import figure_1, figure_2, figure_3, figure_4, figure_5
from repro.data.columnar import ColumnarChainDatabase
from repro.data.records import BlockRecord, TxRecord
from repro.data.store import ChainDatabase
from repro.scenarios.replay_attack import replay_stream
from repro.sim.engine import ForkSimConfig, ForkSimulation


CONFIGS = [
    ForkSimConfig(days=12, prefork_days=3, seed=11, with_transactions=True),
    ForkSimConfig(days=20, prefork_days=2, seed=42, with_transactions=False),
]


@pytest.fixture(scope="module", params=[0, 1], ids=["12d-tx", "20d-notx"])
def result(request):
    return ForkSimulation(CONFIGS[request.param]).run()


@pytest.fixture(scope="module")
def backends(result):
    return result.to_database(), result.to_database(columnar=True)


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
        assert columnar.chains() == record.chains()

    def test_block_boxing(self, backends):
        record, columnar = backends
        for chain in record.chains():
            assert columnar.blocks(chain) == record.blocks(chain)
            assert columnar.block_count(chain) == record.block_count(chain)

    def test_blocks_between(self, result, backends):
        record, columnar = backends
        fork = result.fork_timestamp
        for chain in record.chains():
            for window in ((fork, fork + 7200), (fork - 3600, fork)):
                assert columnar.blocks_between(chain, *window) == (
                    record.blocks_between(chain, *window)
                )

    def test_series_queries(self, backends):
        record, columnar = backends
        for chain in record.chains():
            assert columnar.blocks_per_hour(chain) == (
                record.blocks_per_hour(chain)
            )
            assert columnar.difficulty_series(chain) == (
                record.difficulty_series(chain)
            )
            assert columnar.block_deltas(chain) == record.block_deltas(chain)
            assert columnar.miner_label_series(chain) == (
                record.miner_label_series(chain)
            )

    def test_aggregated_queries_bitwise(self, result, backends):
        record, columnar = backends
        fork = result.fork_timestamp
        for chain in record.chains():
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
        for chain in record.chains():
            rec = record.daily_miner_counts(chain)
            col = columnar.daily_miner_counts(chain)
            assert rec == col
            # Counter equality ignores order, but most_common tie-breaks
            # depend on insertion order — pin it too.
            for day in rec:
                assert list(rec[day].items()) == list(col[day].items())

    def test_no_prefix_suffix_matches(self, result):
        record = result.to_database(include_prefix=False)
        columnar = result.to_database(include_prefix=False, columnar=True)
        for chain in record.chains():
            assert columnar.blocks(chain) == record.blocks(chain)
            assert all(
                r.number > result.fork_number for r in columnar.blocks(chain)
            )


@pytest.fixture(scope="module")
def detector(result):
    records, _ = replay_stream(result)
    detector = EchoDetector()
    detector.observe_records(records)
    return detector


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


def _block(chain="ETH", number=1, timestamp=1000, difficulty=100,
           miner="poolA", tx_count=2, contract_tx_count=1):
    return BlockRecord(chain=chain, number=number, timestamp=timestamp,
                       difficulty=difficulty, miner=miner, tx_count=tx_count,
                       contract_tx_count=contract_tx_count)


class TestColumnarIngest:
    def test_adopt_rejects_duplicate_chain(self, result):
        db = ColumnarChainDatabase()
        db.adopt_trace(result.eth_trace)
        with pytest.raises(ValueError):
            db.adopt_trace(result.eth_trace)

    def test_insert_blocks_matches_record_backend(self):
        rows = [
            _block(number=3, timestamp=3000, miner="p2"),
            _block(number=1, timestamp=1000),
            _block(number=2, timestamp=2000, miner="p2"),
            _block(chain="ETC", number=1, timestamp=500, miner="solo-1"),
        ]
        record = ChainDatabase()
        record.insert_blocks(rows)
        columnar = ColumnarChainDatabase()
        columnar.insert_blocks(rows)
        for chain in record.chains():
            assert columnar.blocks(chain) == record.blocks(chain)
            assert columnar.daily_miner_counts(chain) == (
                record.daily_miner_counts(chain)
            )

    def test_adopted_trace_not_mutated_by_insert(self, result):
        trace = result.eth_trace
        before = len(trace)
        db = ColumnarChainDatabase()
        db.adopt_trace(trace)
        db.insert_blocks(
            [_block(number=trace.numbers[-1] + 1,
                    timestamp=trace.timestamps[-1] + 10)]
        )
        assert len(trace) == before
        assert db.block_count("ETH") == before + 1

    def test_transactions_delegate(self):
        db = ColumnarChainDatabase()
        db.insert_transactions([
            TxRecord(chain="ETH", tx_hash=b"\x01" * 8, block_number=1,
                     timestamp=100, sender=b"\xaa" * 20, to=b"\xbb" * 20,
                     value=1, is_contract=True, replay_protected=False),
            TxRecord(chain="ETH", tx_hash=b"\x02" * 8, block_number=2,
                     timestamp=200, sender=b"\xaa" * 20, to=b"\xbb" * 20,
                     value=1, is_contract=False, replay_protected=False),
        ])
        assert db.tx_count("ETH") == 2
        assert db.transactions_per_day("ETH") == {0: 2}
        assert db.contract_fraction_per_day("ETH") == {0: 0.5}
        assert db.lookup_tx("ETH", b"\x01" * 8).timestamp == 100
        assert "ETH" in db.chains()
