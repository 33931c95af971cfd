"""The analysis data layer: records, windowed aggregation, storage, CSV."""

from .csvio import (
    read_blocks_csv,
    read_series_csv,
    read_txs_csv,
    write_blocks_csv,
    write_series_csv,
    write_txs_csv,
)
from .columnar import ColumnarChainDatabase
from .records import BlockRecord, TxRecord, export_chain, export_transactions
from .resultstore import RESULTSTORE_SCHEMA_VERSION, JobRow, ResultStore
from .store import ChainDatabase
from .windows import (
    DAY,
    HOUR,
    bucket_by_window,
    count_per_window,
    fill_missing_windows,
    mean_per_window,
    sum_per_window,
    window_index,
    window_start,
)

__all__ = [
    "BlockRecord",
    "TxRecord",
    "export_chain",
    "export_transactions",
    "ChainDatabase",
    "ColumnarChainDatabase",
    "JobRow",
    "RESULTSTORE_SCHEMA_VERSION",
    "ResultStore",
    "HOUR",
    "DAY",
    "window_index",
    "window_start",
    "bucket_by_window",
    "count_per_window",
    "sum_per_window",
    "mean_per_window",
    "fill_missing_windows",
    "write_blocks_csv",
    "read_blocks_csv",
    "write_txs_csv",
    "read_txs_csv",
    "write_series_csv",
    "read_series_csv",
]
