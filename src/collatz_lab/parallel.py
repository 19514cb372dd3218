"""Deterministic chunked fan-out for range jobs.

Results are merged in span order, and every worker computes a pure function
of its span, so output is identical no matter how the range was partitioned
or how many processes ran.  With one process to run on (one CPU or one
worker) the range is one span, run in-process.  Otherwise it is cut into
four spans per process, the first runs in-process (the second half of it
timed), and a pool starts for the rest only when that time, projected over
them, saves more than `POOL_COST_S`.
"""

from __future__ import annotations

import os
import time

#: Seconds a pool must save, as projected from the first span, before one
#: starts.  On 2 vCPUs a cold pool of two cost 42-45 ms, but one vCPU at a
#: time ran up to 1.5x slower for tens of seconds, and a pool spread over
#: both was steadier than one process.  perfbench `sweep` (pure, projecting
#: 48-86 ms), `wall_s` median [q1-q3] in s, 10 rounds: this price 0.783
#: [0.774-0.828], a pool for every span 0.761 [0.744-0.779]; in another 10,
#: 0.5 s (in process) 0.794 [0.703-0.821], a pool for every span 0.700
#: [0.660-0.721].  `stats` over 5e3 rows projects 4-7 ms: in process.
POOL_COST_S = 0.02


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
    if pool_size == 1:
        return [fn(lo, hi, *args)]
    first, *rest = split_range(lo, hi, -(-(hi - lo + 1) // (pool_size * 4)))
    # The first half pays one-off set-up, such as _pure's tables.
    head, *tail = split_range(*first, -(-(first[1] - first[0] + 1) // 2))
    results = [fn(*head, *args)]
    t0 = time.perf_counter()
    results += [fn(a, b, *args) for a, b in tail]
    saving = (time.perf_counter() - t0) * 2 * len(rest) * (1 - 1 / pool_size)
    if saving <= POOL_COST_S:
        return results + [fn(a, b, *args) for a, b in rest]
    # Loads concurrent.futures.process and multiprocessing: paid only here.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(pool_size, len(rest))) as pool:
        futures = [pool.submit(fn, a, b, *args) for a, b in rest]
        return results + [f.result() for f in futures]
