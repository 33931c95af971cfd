"""CSV export for figure series.

The benchmark harness and ``run-all`` write every regenerated figure's
series to CSV so results can be inspected (or plotted) outside the test
run.  Formats are plain ``csv`` module output with stable headers — no
pandas dependency.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["write_series_csv", "read_series_csv"]


def write_series_csv(
    path: Union[str, Path],
    columns: Dict[str, Sequence],
    index_name: str = "t",
    index: Optional[Sequence] = None,
) -> int:
    """Write a columnar time series (figure output format).

    All columns must share one length; ``index`` defaults to 0..n-1.
    """
    lengths = {len(values) for values in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"column length mismatch: {lengths}")
    length = lengths.pop() if lengths else 0
    if index is None:
        index = range(length)
    parent = Path(path).parent
    if parent and not parent.exists():
        parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([index_name, *columns.keys()])
        for position, idx in enumerate(index):
            writer.writerow(
                [idx, *(columns[name][position] for name in columns)]
            )
    return length


def read_series_csv(
    path: Union[str, Path],
) -> Tuple[List[str], List[List[float]]]:
    """Read a series CSV back as (header, rows-of-floats)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader]
    return header, rows
