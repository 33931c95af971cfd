"""The analysis data layer: records, sighting tables, windowing, the
analysis database, the result store and figure CSV IO."""

from .csvio import read_series_csv, write_series_csv
from .columnar import ColumnarChainDatabase
from .records import BlockRecord, TxRecord, export_chain, export_transactions
from .resultstore import RESULTSTORE_SCHEMA_VERSION, JobRow, ResultStore
from .sightings import Sightings
from .windows import DAY, HOUR, window_index, window_start

__all__ = [
    "BlockRecord",
    "TxRecord",
    "export_chain",
    "export_transactions",
    "ColumnarChainDatabase",
    "JobRow",
    "RESULTSTORE_SCHEMA_VERSION",
    "ResultStore",
    "Sightings",
    "HOUR",
    "DAY",
    "window_index",
    "window_start",
    "write_series_csv",
    "read_series_csv",
]
