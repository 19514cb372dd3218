"""Deterministic chunked fan-out for range jobs.

Results are merged in span order, and every worker computes a pure function
of its span, so output is identical no matter how the range was partitioned
or how many processes ran.  With one process to run on (one CPU or one
worker), or without `os.fork`, the range is one span, run in-process.
Otherwise it is cut into four spans per process, which k - 1 forked children
and the parent claim from one shared pipe.  A child sends its results, or
its exception, as one pickle and ends with `os._exit`; each is reaped before
`run_chunked` returns or raises.  A fork copies only the calling thread, so
a library caller that runs threads should pass workers=1; the CLI runs none.
"""

from __future__ import annotations

import os


def split_range(lo: int, hi: int, chunk: int) -> list[tuple[int, int]]:
    """Inclusive [lo, hi] cut into inclusive spans of at most chunk items."""
    return [(a, min(a + chunk - 1, hi)) for a in range(lo, hi + 1, chunk)]


def run_chunked(fn, lo: int, hi: int, workers: int, args: tuple = ()) -> list:
    """Apply fn(a, b, *args) over spans of [lo, hi]; return results in order.
    A child's exception is raised here; a child that dies, RuntimeError."""
    if hi < lo:
        return []
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    pool_size = max(1, min(workers, cpus))
    if pool_size == 1 or not hasattr(os, "fork"):
        return [fn(lo, hi, *args)]
    import pickle   # loaded here, so that a run in one process does not pay for it

    spans = split_range(lo, hi, -(-(hi - lo + 1) // (pool_size * 4)))
    # All indices go in before the fork: a 64 KiB pipe holds 4096 processes' spans.
    claims, queue = os.pipe()
    os.write(queue, b"".join(i.to_bytes(4, "little") for i in range(len(spans))))
    os.close(queue)
    live, pipes = [], []   # unreaped children; the read ends of their pipes
    try:
        for _ in range(min(pool_size, len(spans)) - 1):
            r, w = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, spans, args, claims, w)
            finally:
                os.close(w)
            live.append(pid)
        done = _claim(fn, spans, args, claims)
        for r in pipes:
            with open(r, "rb", closefd=False) as source:
                data = source.read()
            status = os.waitpid(live[0], 0)[1]
            pid = live.pop(0)
            if status:
                raise RuntimeError(f"worker process {pid} died without its results "
                                   f"(exit status {os.waitstatus_to_exitcode(status)})")
            part = pickle.loads(data)
            if isinstance(part, BaseException):
                raise part
            done.update(part)
    finally:   # on the way out of an exception, kill and reap what is left
        for fd in (claims, *pipes):
            os.close(fd)
        for pid in live:
            os.kill(pid, 9)   # SIGKILL; importing signal would slow every fork path
            os.waitpid(pid, 0)
    return [done[i] for i in range(len(spans))]


def _claim(fn, spans, args, claims) -> dict:
    """Run the spans whose indices this process claims, until none is left."""
    done = {}
    while index := os.read(claims, 4):
        i = int.from_bytes(index, "little")
        done[i] = fn(*spans[i], *args)
    return done


def _child(fn, spans, args, claims, out) -> None:
    """A forked child's whole life: claim spans, send {index: result} or the
    exception that stopped it, and exit, on every path, without returning."""
    import pickle   # loaded already, by the parent
    status = 1
    try:
        try:
            payload = pickle.dumps(_claim(fn, spans, args, claims))
        except BaseException as exc:
            payload = pickle.dumps(exc)
        with open(out, "wb", closefd=False) as sink:
            sink.write(payload)
        status = 0
    finally:
        os._exit(status)
