"""Mining-pool concentration analysis — Figure 5.

The paper computes, per day, the share of all mined blocks won by the top
1, 3, and 5 coinbase addresses, choosing the top pools *each day* "because
pools are highly dynamic (pools come and go regularly)".  It then makes
three observations this module's functions quantify:

* ETH's ratios are constant and identical to pre-fork (pool migration was
  immediate and wholesale) — :func:`migration_consistency`;
* ETC's top pools start much smaller and grow; — visible in the
  :func:`top_n_share_series` trajectories;
* ETC eventually converges to the same ratios as ETH —
  :func:`convergence_day`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..data.windows import DAY
from .timeseries import TimeSeries

__all__ = [
    "daily_top_n_shares",
    "top_n_share_series",
    "db_top_n_share_series",
    "daily_top_pools",
    "migration_consistency",
    "convergence_day",
]


def daily_top_n_shares(
    daily_winner_counts: Counter, top_n: int
) -> float:
    """Fraction of one day's blocks won by that day's top ``top_n`` miners."""
    total = sum(daily_winner_counts.values())
    if total == 0:
        return 0.0
    top = daily_winner_counts.most_common(top_n)
    return sum(count for _, count in top) / total


def _bucket_winners(
    labeled_blocks: Iterable[Tuple[int, str]],
) -> Dict[int, Counter]:
    days: Dict[int, Counter] = {}
    for timestamp, label in labeled_blocks:
        days.setdefault(int(timestamp // DAY), Counter())[label] += 1
    return days


def top_n_share_series(
    labeled_blocks: Iterable[Tuple[int, str]],
    top_n: int,
    name: str = "",
) -> TimeSeries:
    """Daily top-N share over a stream of (timestamp, miner label)."""
    days = _bucket_winners(labeled_blocks)
    indices = sorted(days)
    return TimeSeries(
        [index * DAY for index in indices],
        [100.0 * daily_top_n_shares(days[index], top_n) for index in indices],
        name=name or f"top-{top_n} share %",
    )


def db_top_n_share_series(
    db,
    chain: str,
    top_n: int,
    start_ts: Optional[float] = None,
    solo_prefix: str = "solo-",
) -> TimeSeries:
    """Figure 5 series from a database's aggregated miner counts.

    ``solo_prefix`` marks coinbases known to be individuals; they are
    counted in the denominator but can never constitute a "pool".  (The
    paper cannot make this distinction — a prolific solo miner would count
    — but with thousands of solo identities none ever reaches the top 5,
    so the result is unchanged; the flag exists for the ablation test.)

    Both backends give the same bytes: ``daily_miner_counts`` preserves
    first-occurrence insertion order, the solo filter below preserves
    relative order among the survivors, and ``most_common``'s stable
    sort therefore breaks ties the same way.
    """
    return _share_series(
        db.daily_miner_counts(chain, start_ts), chain, top_n, solo_prefix
    )


def _share_series(
    days: Dict[int, Counter], chain: str, top_n: int, solo_prefix: str = "solo-"
) -> TimeSeries:
    """:func:`db_top_n_share_series` over already-counted ``days``, so a
    caller wanting several ``top_n`` counts a chain once."""
    indices = sorted(days)
    values = []
    for index in indices:
        counter = days[index]
        total = sum(counter.values())
        pools = Counter(
            {
                label: count
                for label, count in counter.items()
                if not label.startswith(solo_prefix)
            }
        )
        top = pools.most_common(top_n)
        values.append(100.0 * sum(count for _, count in top) / total)
    return TimeSeries(
        [index * DAY for index in indices],
        values,
        name=f"{chain} top-{top_n} %",
    )


def daily_top_pools(
    labeled_blocks: Iterable[Tuple[int, str]], top_n: int
) -> Dict[int, List[str]]:
    """Day index -> that day's top-N pool labels (identity tracking)."""
    days = _bucket_winners(labeled_blocks)
    return {
        index: [label for label, _ in counter.most_common(top_n)]
        for index, counter in days.items()
    }


def migration_consistency(
    prefork_blocks: Iterable[Tuple[int, str]],
    postfork_blocks: Iterable[Tuple[int, str]],
    top_n: int = 5,
) -> float:
    """Jaccard overlap between pre-fork and post-fork top-pool sets.

    The paper "verified that the top mining pools' addresses before the
    fork are consistent across ETH"; a value near 1.0 reproduces that: the
    same pool identities dominate both eras.
    """
    pre = Counter(label for _, label in prefork_blocks)
    post = Counter(label for _, label in postfork_blocks)
    pre_top: Set[str] = {label for label, _ in pre.most_common(top_n)}
    post_top: Set[str] = {label for label, _ in post.most_common(top_n)}
    union = pre_top | post_top
    if not union:
        return 0.0
    return len(pre_top & post_top) / len(union)


def convergence_day(
    series_a: TimeSeries,
    series_b: TimeSeries,
    tolerance: float = 8.0,
    sustain_days: int = 14,
) -> Optional[float]:
    """First timestamp after which |a - b| stays within ``tolerance``
    percentage points for ``sustain_days`` consecutive shared days.

    Applied to the ETH and ETC top-N share series, this quantifies the
    paper's "eventually they have converged on the same relative ratios".
    Returns None if convergence never sustains.
    """
    from .timeseries import align

    a, b = align(series_a, series_b)
    run_start: Optional[float] = None
    run_length = 0
    for timestamp, (x, y) in zip(a.timestamps, zip(a.values, b.values)):
        if abs(x - y) <= tolerance:
            if run_start is None:
                run_start = timestamp
            run_length += 1
            if run_length >= sustain_days:
                return run_start
        else:
            run_start = None
            run_length = 0
    return None
