"""Compare the compiled kernels against the pure-Python reference.

Times each workload 5 times per backend, the two backends interleaved, and
prints the median and interquartile range of each with the speedup of the
medians.  Every row is sized so that the compiled backend takes at least
5 ms on a 2-vCPU host: a compiled row of a millisecond or less moves by
±20% with code layout alone.

Only the kernels with a compiled twin have a row; the others run pure on
both backends, and `PURE_ONLY` in tests/test_kernels.py names them.  The
scan and span rows time what the checkers run, on windows from 0 or 8.5e6,
the size the benchmark's `sweep` workload uses; the three orbit-walk spans
(`covering` and the two reach sweeps) run from 2**68 too, as in its
`frontier` workload: there `_pure` shares finished tails between the starts
of a span, and the compiled span hands the whole bigint window to `_pure`,
so the compiled column should read the same as the pure one.  The edge rows time the ranges where the compiled kernels
hand work to `_pure`: the `dual-forms` window up to 2**41 - 1, where only
that last element does not fit in uint64; `u-residues` seeds from 2**61,
some of whose walks pass 2**64; and windows across (2**64 - 2) / 3, past
which the compiled `scan_x_residues` and `span_parity_runs` go to `_pure`
in one call.  Pass --scale N to multiply every size by N.

The compiled column needs `collatz_lab._fast` to import, so build it in
place first with the gcc line in README "Install":

    python benchmarks/bench_kernels.py
"""

import argparse
import statistics
import time

from collatz_lab import _pure

try:
    from collatz_lab import _fast
except ImportError:
    _fast = None

REPEATS = 5
SAFE3 = (2**64 - 2) // 3


def bench_scalar_sweep(mod, n):
    for k in range(1, n):
        mod.ruler(k)
        mod.interleave_p(k)
        mod.apt_step(k)


def bench_range(name, lo, budgeted=False, centred=False):
    """The range kernel `name` over n inputs from lo, or centred on lo."""
    def run(mod, n):
        first = lo - n // 2 if centred else lo
        args = (first, first + n - 1, *((100_000,) if budgeted else ()))
        return getattr(mod, name)(*args)
    return run


WORKLOADS = [
    ("scalar sweep (ruler+p+apt)", bench_scalar_sweep, 200_000),
    ("scan_p3n", bench_range("scan_p3n", 0), 5_000_000),
    ("scan_x_residues", bench_range("scan_x_residues", 0), 2_500_000),
    ("span_u_residues from 8.5e6", bench_range("span_u_residues", 8_500_000, True), 50_000),
    ("span_u_residues_odd from 8.5e6",
     bench_range("span_u_residues_odd", 8_500_000, True), 50_000),
    ("span_parity_runs from 8.5e6", bench_range("span_parity_runs", 8_500_000), 2_000_000),
    ("span_dual_forms from 8.5e6", bench_range("span_dual_forms", 8_500_000), 1_000_000),
    ("span_covering from 8.5e6", bench_range("span_covering", 8_500_000, True), 20_000),
    ("span_covering from 2**68", bench_range("span_covering", 2**68, True), 5_000),
    ("span_conjecture_apt from 8.5e6",
     bench_range("span_conjecture_apt", 8_500_000, True), 50_000),
    ("span_conjecture_apt from 2**68", bench_range("span_conjecture_apt", 2**68, True), 20_000),
    ("span_conjecture_emapt from 8.5e6",
     bench_range("span_conjecture_emapt", 8_500_000, True), 50_000),
    ("span_conjecture_emapt from 2**68",
     bench_range("span_conjecture_emapt", 2**68, True), 20_000),
    ("edge: span_dual_forms up to 2**41 - 1",
     lambda m, n: m.span_dual_forms(2**41 - n, 2**41 - 1), 1_000_000),
    ("edge: span_u_residues from 2**61", bench_range("span_u_residues", 2**61, True), 20_000),
    ("edge: span_u_residues_odd from 2**61",
     bench_range("span_u_residues_odd", 2**61, True), 20_000),
    ("edge: scan_x_residues across SAFE3",
     bench_range("scan_x_residues", SAFE3, centred=True), 20_000),
    ("edge: span_parity_runs across SAFE3",
     bench_range("span_parity_runs", SAFE3, centred=True), 20_000),
]


def time_once(fn, mod, n):
    t0 = time.perf_counter()
    fn(mod, n)
    return time.perf_counter() - t0


def summary(times):
    """Median and interquartile range, in ms."""
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return median * 1e3, (q3 - q1) * 1e3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=1)
    args = parser.parse_args()

    backends = [_pure] if _fast is None else [_pure, _fast]
    if _fast is None:
        print('compiled backend not built (see README "Install"); '
              "showing pure-python times only")

    name_w = max(len(name) for name, _, _ in WORKLOADS)
    header = f"{'workload':<{name_w}}  {'size':>9}  {'pure ms (IQR)':>17}"
    if _fast is not None:
        header += f"  {'fast ms (IQR)':>17}  {'speedup':>8}"
    print(f"median and IQR of {REPEATS} runs per backend, interleaved")
    print(header)
    print("-" * len(header))

    for name, fn, base_n in WORKLOADS:
        n = base_n * args.scale
        times = {mod: [] for mod in backends}
        for mod in backends:
            fn(mod, 1)   # lazy set-up, such as the stopping tables, stays untimed
        for _ in range(REPEATS):
            for mod in backends:
                times[mod].append(time_once(fn, mod, n))
        medians = []
        row = f"{name:<{name_w}}  {n:>9}"
        for mod in backends:
            median, iqr = summary(times[mod])
            medians.append(median)
            row += f"  {median:>9.2f} ({iqr:>5.2f})"
        if _fast is not None:
            row += f"  {medians[0] / medians[1]:>7.1f}x"
        print(row, flush=True)


if __name__ == "__main__":
    main()
