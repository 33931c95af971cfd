"""Peak-memory regression pin for the analysis pipeline.

The point of the columnar backend is that a half-million-block figure
pass no longer materializes a boxed ``BlockRecord`` per block.  This
test pins that property with tracemalloc: the figure + observation pass
``run-all`` runs (``figure_1/2/3/5(result)`` and ``evaluate_all(result)``,
each over the result's zero-copy columnar database) must fit a fixed
byte budget.  The record backend lands at ~132 MB on the same workload
(~6x over); the ``forksim_analysis`` bench case keeps measuring that
gap at the paper's scale.  A regression that starts boxing records on
the hot path fails the budget immediately instead of surfacing as a
slow OOM at a million blocks.
"""

import gc
import tracemalloc

import pytest

from repro.core.observations import evaluate_all
from repro.core.report import figure_1, figure_2, figure_3, figure_5
from repro.harness.cache import ResultCache
from repro.sim.blockprod import ChainTrace
from repro.sim.engine import ForkSimConfig, run_fork_sim

#: 40 days ≈ 520k blocks across both chains — big enough that per-block
#: boxing dominates the peak, small enough for tier-1 latency.
CONFIG = ForkSimConfig(days=40, prefork_days=3, seed=5, with_transactions=False)

#: Hard ceiling for the analysis pass.  Measured peak is ~20 MB; the
#: headroom absorbs allocator noise, not algorithmic regressions.
COLUMNAR_BUDGET_BYTES = 32 * 1024 * 1024


@pytest.fixture(scope="module")
def result():
    return run_fork_sim(CONFIG)


def test_columnar_analysis_fits_budget(result):
    gc.collect()
    tracemalloc.start()
    try:
        for figure in (figure_1, figure_2, figure_3, figure_5):
            figure(result)
        evaluate_all(result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= COLUMNAR_BUDGET_BYTES, (
        f"columnar analysis peak {peak} bytes exceeds the "
        f"{COLUMNAR_BUDGET_BYTES}-byte budget — something is boxing "
        "records on the hot path"
    )


def test_cache_store_makes_no_copy_of_the_columns(tmp_path):
    """Pickling a trace hands each column to the file as a buffer view,
    so storing a result costs about pickle's framing, not a second copy
    of every column (a ``tobytes()`` per column costs the lot, since the
    pickler's memo keeps each copy until the dump ends).  Loading frees
    each column's payload once the column is built, so a load peaks at
    about one trace plus one column, not two traces."""
    small = run_fork_sim(
        ForkSimConfig(days=8, prefork_days=1, seed=5, with_transactions=False)
    )
    column_bytes = sum(
        getattr(trace, name).itemsize * len(trace)
        for trace in small.traces().values()
        for name in ChainTrace.COLUMNS
    )
    cache = ResultCache(tmp_path / "cache")
    gc.collect()
    tracemalloc.start()
    try:
        cache.store("a" * 64, small)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < column_bytes / 8, (
        f"storing {column_bytes} column bytes peaked at {peak} bytes"
    )
    gc.collect()
    tracemalloc.start()
    try:
        hit, loaded = cache.lookup("a" * 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hit and loaded.digest() == small.digest()
    assert peak < 1.5 * column_bytes, (
        f"loading {column_bytes} column bytes peaked at {peak} bytes"
    )
