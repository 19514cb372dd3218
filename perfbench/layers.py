"""Per-layer probes: time calls into each module's public functions from outside.

Every probe runs in the benchmark's own process on seeded windows of a fixed
size, against the package as the repo's build produced it.  Times are medians
of ``REPS`` calls; counts (steps, nodes, bytes) repeat exactly for a seed.
"""

from __future__ import annotations

import io
import os
import pickle
import random
import statistics
import time

import workloads
from spans import TimedSpan, span_name

REPS = 3
BUDGET = 100_000

#: Probe window per checker: small enough that the whole probe suite stays
#: within a few seconds on the pure backend.
CHECKER_PROBES = {
    "conjecture-apt": 10_000,
    "conjecture-emapt": 5_000,
    "covering": 1_500,
    "u-residues": 6_000,
    "u-residues-odd-starts": 6_000,
    "parity-runs": 30_000,
    "dual-forms": 30_000,
    "linear-fixed-point": 30_000,
    "x-residues": 30_000,
    "p3n": 100_000,
}
BIG_PROBE = 3_000
PARALLEL_PROBE = 30_000
STATS_PROBE = 2_000
TREE_PROBE = (20_000, 40)
RULER_PROBE = 100_000


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def median_time(fn, *args, reps=REPS):
    times = []
    for _ in range(reps):
        elapsed, result = timed(fn, *args)
        times.append(elapsed)
    return statistics.median(times), result


def bare_loop(k, checker, lo, hi, budget):
    """The checker's kernel calls over its inputs, without its glue.

    Returns the number of kernel steps where the kernel reports one.
    """
    if checker == "conjecture-apt":
        return sum(k.apt_stopping(n, budget) for n in range(lo, hi + 1))
    if checker == "conjecture-emapt":
        return sum(k.emapt_stopping(6 * n + 2, budget) for n in range(lo, hi + 1))
    if checker == "covering":
        for n in range(lo, hi + 1):
            k.covering_chain(n, budget)
    elif checker == "u-residues":
        for u in range(max(lo, 2) + max(lo, 2) % 2, hi + 1, 2):
            k.emapt_stopping(u, budget)
    elif checker == "u-residues-odd-starts":
        for seed in range(max(lo, 1) | 1, hi + 1, 2):
            k.emapt_stopping(k.emapt_step_ruler(seed), budget)
    elif checker == "parity-runs":
        for n in range(lo, hi + 1):
            k.ruler(n >> 1 if n % 2 == 0 else (n + 1) >> 1)
            k.apt_step(n)
    elif checker == "dual-forms":
        k.scan_emapt_forms(lo, hi)
        for n in range(max(lo, 0), hi + 1):
            k.interleave_p(n)
            k.shifted_ruler_q(n)
            k.interleave_p(n)
            k.shifted_ruler_q(n)
            k.apt_step(2 * n + 2)
            k.apt_step(2 * n + 1)
    elif checker == "linear-fixed-point":
        for u in range(max(lo, 2), hi + 1):
            if u % 6 == 2:
                k.emapt_step_pq(u)
                k.odd_part(u)
    elif checker == "x-residues":
        k.scan_x_residues(lo, hi)
    elif checker == "p3n":
        k.scan_p3n(lo, hi)
    return 0


def probe_checkers(m, rng, scale):
    """span_s, glue_s and merge_s per checker, plus the kernel rates the
    reach and covering loops give, and each span function's kernel share."""
    out = {}
    shares = {}
    merge = 0.0
    for checker, size in CHECKER_PROBES.items():
        spec = m.verify.CHECKERS[checker]
        lo, hi = workloads.window(rng, workloads.scaled(size, scale))
        span_t, bare_t, check_t = [], [], []
        for _ in range(REPS):
            span_t.append(timed(spec.span, lo, hi, BUDGET)[0])
            elapsed, steps = timed(bare_loop, m.kernels, checker, lo, hi, BUDGET)
            bare_t.append(elapsed)
            check_t.append(timed(m.verify.run_check, checker, lo, hi, BUDGET, 1)[0])
        span_s, bare_s = statistics.median(span_t), statistics.median(bare_t)
        out[f"verify.{checker}.span_s"] = (span_s, "s")
        out[f"verify.{checker}.glue_s"] = (span_s - bare_s, "s")
        merge += statistics.median(check_t) - span_s
        shares[span_name(spec.span)] = bare_s / span_s
        if checker == "conjecture-apt":
            out["kernels.apt_stopping.ns_per_step"] = (bare_s / steps * 1e9, "ns")
            out["kernels.steps"] = (steps, "count")
        elif checker == "conjecture-emapt":
            out["kernels.emapt_stopping.ns_per_step"] = (bare_s / steps * 1e9, "ns")
        elif checker == "covering":
            out["kernels.covering_chain.us_per_call"] = (bare_s / (hi - lo + 1) * 1e6, "us")
    out["verify.merge_s"] = (merge, "s")
    lo, hi = workloads.window(rng, workloads.scaled(BIG_PROBE, scale), workloads.FRONTIER)
    big_s, big_steps = median_time(bare_loop, m.kernels, "conjecture-apt", lo, hi, BUDGET)
    out["kernels.apt_stopping.big_ns_per_step"] = (big_s / big_steps * 1e9, "ns")
    out["kernels.big_steps"] = (big_steps, "count")
    return out, shares


def probe_parallel(m, rng, scale, nproc):
    """Pool start, per-span imbalance and speed-up of one run_chunked call."""
    span = m.verify.CHECKERS["conjecture-apt"].span
    lo, hi = workloads.window(rng, workloads.scaled(PARALLEL_PROBE, scale))
    serial_t, wall_t, start_t, imbalance, worker_imbalance = [], [], [], [], []
    for _ in range(REPS):
        serial_t.append(timed(span, lo, hi, BUDGET)[0])
        t0 = time.perf_counter()
        parts = m.parallel.run_chunked(TimedSpan(span), lo, hi, nproc, (BUDGET,))
        wall_t.append(time.perf_counter() - t0)
        start_t.append(min(p[1] for p in parts) - t0)
        durations = [p[2] - p[1] for p in parts]
        imbalance.append(max(durations) / statistics.mean(durations))
        busy: dict[int, float] = {}
        for _, start, end, pid in parts:
            busy[pid] = busy.get(pid, 0.0) + end - start
        worker_imbalance.append(max(busy.values()) / statistics.mean(busy.values()))
    return {
        "parallel.pool_start_s": (statistics.median(start_t), "s"),
        "parallel.speedup": (statistics.median(serial_t) / statistics.median(wall_t), "x"),
        "parallel.span_imbalance": (statistics.median(imbalance), "ratio"),
        "parallel.worker_imbalance": (statistics.median(worker_imbalance), "ratio"),
    }


def probe_tables(m, rng, scale, nproc, root):
    """stats glue and pickled result size, trace, tree, emit, oeis and arith."""
    out = {}
    lo, hi = workloads.window(rng, workloads.scaled(STATS_PROBE, scale))
    stats_s, table = median_time(m.sequences.stopping_stats, lo, hi, BUDGET, 1)
    bare_s, _ = median_time(bare_loop, m.kernels, "covering", lo, hi, BUDGET)
    out["sequences.stats_glue_s"] = (stats_s - bare_s, "s")
    stats_share = bare_s / stats_s
    chunk = -(-len(table.rows) // (nproc * 4))
    out["parallel.result_bytes"] = (sum(
        len(pickle.dumps(list(table.rows[a - lo:b - lo + 1])))
        for a, b in m.parallel.split_range(lo, hi, chunk)
    ), "B")

    traces = [
        ("A", workloads.LOW + rng.randrange(10**6), None),
        ("U", workloads.LOW + 2 * rng.randrange(10**6), None),
        ("G", workloads.LOW + rng.randrange(10**6), (3, 1)),
        ("A", workloads.BIG_TRACE + rng.randrange(2**64), None),
    ]

    def run_traces():
        for kind, start, params in traces:
            gp = m.sequences.GParams(*params) if params else None
            m.sequences.trace(kind, start, BUDGET, None, gp)

    out["sequences.trace_s"] = (median_time(run_traces)[0], "s")

    tree_s, tree = median_time(
        m.reverse_tree.build_tree, workloads.scaled(TREE_PROBE[0], scale), TREE_PROBE[1])
    out["reverse_tree.build_tree_s"] = (tree_s, "s")
    out["reverse_tree.nodes"] = (len(tree.nodes), "count")

    emitted = 0
    for label, result, fmt in (("stats", table, "csv"), ("stats", table, "json"),
                               ("tree", tree, "json"), ("tree", tree, "dot")):
        sinks = []

        def emit_once():
            sinks.append(io.StringIO())
            m.emit.emit(result, fmt, sinks[-1])

        out[f"emit.{label}.{fmt}_s"] = (median_time(emit_once)[0], "s")
        emitted += len(sinks[-1].getvalue().encode())
    out["emit.bytes"] = (emitted, "B")

    triples = []
    k = m.kernels
    for u in range(lo - lo % 6 + 8, lo - lo % 6 + 8 + 6 * 2000, 6):
        v = k.odd_part(u)
        alpha = ((v + 1) & -(v + 1)).bit_length() - 1
        triples.append((k.emapt_step_pq(u), alpha, (u & -u).bit_length() - 1))

    def inverse_steps():
        for succ, alpha, beta in triples:
            m.reverse_tree.reverse_affine_step(succ, alpha, beta)

    out["reverse_tree.reverse_affine_step.us_per_call"] = (
        median_time(inverse_steps)[0] / len(triples) * 1e6, "us")

    for path, gen in workloads.FIXTURES:
        with open(os.path.join(root, path), encoding="utf-8") as handle:
            content = handle.read()
        spec = m.oeis.GENERATORS[gen]
        count = workloads.scaled(workloads.OEIS_TERMS, scale)
        out[f"oeis.{spec.oeis_id}.check_s"] = (
            median_time(m.oeis.check_oeis, content, gen, count)[0], "s")

    n = workloads.scaled(RULER_PROBE, scale)
    ruler = m.arith.ruler

    def rulers():
        for i in range(1, n + 1):
            ruler(i)

    out["arith.ruler.ns_per_call"] = (median_time(rulers)[0] / n * 1e9, "ns")
    return out, stats_share


def run_probes(m, seed, scale, nproc, root):
    """All in-process probes.  ``m`` is a namespace of the imported modules.

    Returns the metrics and, per span function, the share of its time spent
    in the bare kernel loop, which attributes traced span time to kernels.
    """
    rng = random.Random(f"probes/{seed}")
    metrics, shares = probe_checkers(m, rng, scale)
    metrics.update(probe_parallel(m, rng, scale, nproc))
    tables, shares[span_name(m.sequences._stats_span)] = probe_tables(
        m, rng, scale, nproc, root)
    metrics.update(tables)
    return metrics, shares
