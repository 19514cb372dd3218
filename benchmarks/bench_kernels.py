"""Compare the compiled kernels against the pure-Python reference.

Times each workload once per backend and prints a table with speedups.
The stopping rows time the reach sweeps' counters at the sizes the
benchmark's `sweep` and `frontier` workloads use (near 8.5e6 and 2**68).
The stats row times the pure `orbit_lengths` block walk against the compiled
lock-step `covering_chain`, which gives the same three lengths: about 3.0
against 1.6 us per start (medians of 5 runs on 2 vCPUs).  `kernels` binds
the pure walk on both backends all the same; its comment says why.
The span rows time the checker span kernels on windows from 8.5e6 at the
sizes the benchmark's `checkers` workload gives each checker.
Sizes are chosen so the pure backend finishes in a few seconds; pass
--scale N to multiply every workload size by N.

The compiled column needs `collatz_lab._fast` to import, so build it in
place first with the gcc line in README "Install":

    python benchmarks/bench_kernels.py
"""

import argparse
import time

from collatz_lab import _pure

try:
    from collatz_lab import _fast
except ImportError:
    _fast = None


def bench_scalar_sweep(mod, n):
    for k in range(1, n):
        mod.ruler(k)
        mod.interleave_p(k)
        mod.apt_step(k)


def bench_covering(mod, n):
    for k in range(1, n):
        mod.covering_chain(k, 100_000)


def bench_apt_stopping(mod, base, n):
    for k in range(base, base + n):
        mod.apt_stopping(k, 100_000)


def bench_emapt_stopping(mod, n):
    for k in range(8_500_000, 8_500_000 + n):
        mod.emapt_stopping(6 * k + 2, 100_000)


def bench_stats_lengths(mod, n):
    # What `stats` would call per start on each side: the compiled module has
    # no block walk, so its row is the literal covering_chain.
    lengths = _pure.orbit_lengths if mod is _pure else mod.covering_chain
    for k in range(8_500_000, 8_500_000 + n):
        lengths(k, 100_000)


def bench_span(name, budgeted):
    def run(mod, n):
        span = getattr(mod, name)
        lo, hi = 8_500_000, 8_500_000 + n - 1
        return span(lo, hi, 100_000) if budgeted else span(lo, hi)
    return run


WORKLOADS = [
    ("scalar sweep (ruler+p+apt)", bench_scalar_sweep, 200_000),
    ("covering_chain", bench_covering, 20_000),
    ("apt_stopping from 8.5e6", lambda m, n: bench_apt_stopping(m, 8_500_000, n), 50_000),
    ("apt_stopping from 2**68", lambda m, n: bench_apt_stopping(m, 2**68, n), 20_000),
    ("emapt_stopping of 6n+2 from 8.5e6", bench_emapt_stopping, 50_000),
    ("stats lengths from 8.5e6", bench_stats_lengths, 20_000),
    ("scan_index_reps", lambda m, n: m.scan_index_reps(0, n), 1_000_000),
    ("scan_ruler_identities", lambda m, n: m.scan_ruler_identities(0, n), 1_000_000),
    ("scan_p3n", lambda m, n: m.scan_p3n(0, n), 1_000_000),
    ("scan_x_residues", lambda m, n: m.scan_x_residues(0, n), 200_000),
    ("scan_emapt_forms", lambda m, n: m.scan_emapt_forms(2, n), 200_000),
    ("span_u_residues from 8.5e6", bench_span("span_u_residues", True), 25_000),
    ("span_u_residues_odd from 8.5e6", bench_span("span_u_residues_odd", True), 25_000),
    ("span_parity_runs from 8.5e6", bench_span("span_parity_runs", False), 100_000),
    ("span_dual_forms from 8.5e6", bench_span("span_dual_forms", False), 100_000),
]


def run_one(fn, mod, n):
    fn(mod, 1)   # lazy set-up, such as the stopping tables, stays untimed
    t0 = time.perf_counter()
    fn(mod, n)
    return time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=1)
    args = parser.parse_args()

    if _fast is None:
        print('compiled backend not built (see README "Install"); '
              "showing pure-python times only")

    name_w = max(len(name) for name, _, _ in WORKLOADS)
    header = f"{'workload':<{name_w}}  {'size':>9}  {'pure (s)':>9}"
    if _fast is not None:
        header += f"  {'fast (s)':>9}  {'speedup':>8}"
    print(header)
    print("-" * len(header))

    for name, fn, base_n in WORKLOADS:
        n = base_n * args.scale
        t_pure = run_one(fn, _pure, n)
        row = f"{name:<{name_w}}  {n:>9}  {t_pure:>9.4f}"
        if _fast is not None:
            t_fast = run_one(fn, _fast, n)
            ratio = t_pure / t_fast if t_fast > 0 else float("inf")
            row += f"  {t_fast:>9.4f}  {ratio:>7.1f}x"
        print(row)


if __name__ == "__main__":
    main()
