"""Time-window aggregation: the hourly/daily buckets behind every figure.

The paper reports blocks *per hour* (Figure 1), transactions *per day*
(Figure 2), rebroadcasts *per day* (Figure 4), and daily top-N pool shares
(Figure 5).  This module provides one windowing abstraction shared by all
of them, so bucket-boundary behaviour is consistent (and tested once).

Windows are half-open ``[start, start + width)`` aligned to the epoch, so
every timestamped observation falls in exactly one bucket.
"""

from __future__ import annotations

__all__ = ["HOUR", "DAY", "window_index", "window_start"]

HOUR = 3_600
DAY = 86_400


def window_index(timestamp: float, width: int) -> int:
    """Which window a timestamp falls into (floor division by width)."""
    if width <= 0:
        raise ValueError("window width must be positive")
    return int(timestamp // width)


def window_start(index: int, width: int) -> int:
    return index * width
