"""Deterministic chunked fan-out for range jobs.

Results are merged in span order, and every worker computes a pure function
of its span, so output is identical no matter how the range was partitioned
or how many processes ran.  A pool never holds more processes than there are
spans or CPUs this process may run on, and gets four spans per process; where
that leaves one process, the range runs in-process.
"""

from __future__ import annotations

import os


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
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    pool_size = max(1, min(workers, cpus))
    spans = split_range(lo, hi, -(-(hi - lo + 1) // (pool_size * 4)))
    if pool_size == 1 or len(spans) == 1:
        return [fn(lo, hi, *args)]
    # Loads concurrent.futures.process and multiprocessing: paid only here.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(pool_size, len(spans))) as pool:
        futures = [pool.submit(fn, a, b, *args) for a, b in spans]
        return [f.result() for f in futures]
