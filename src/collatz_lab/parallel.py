"""Deterministic chunked fan-out for range jobs.

Results are merged in span order, and every worker computes a pure function
of its span, so output is identical no matter how the range was partitioned
or how many processes ran.  workers=1 stays in-process; a pool never holds
more processes than there are CPUs or spans.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def split_range(lo: int, hi: int, chunk: int) -> list[tuple[int, int]]:
    """Inclusive [lo, hi] cut into inclusive spans of at most chunk items."""
    spans = []
    a = lo
    while a <= hi:
        b = min(a + chunk - 1, hi)
        spans.append((a, b))
        a = b + 1
    return spans


def run_chunked(fn, lo: int, hi: int, workers: int, args: tuple = ()) -> list:
    """Apply fn(a, b, *args) over spans of [lo, hi]; return results in order."""
    if hi < lo:
        return []
    total = hi - lo + 1
    if workers <= 1:
        return [fn(lo, hi, *args)]
    chunk = max(1, -(-total // (workers * 4)))
    spans = split_range(lo, hi, chunk)
    if len(spans) == 1:
        return [fn(lo, hi, *args)]
    pool_size = min(workers, os.cpu_count() or 1, len(spans))
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        futures = [pool.submit(fn, a, b, *args) for a, b in spans]
        return [f.result() for f in futures]
