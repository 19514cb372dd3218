"""Range checkers for the structural claims the sequence engines rely on.

Every checker sweeps an inclusive integer range, optionally fanned out over
worker processes, and returns a :class:`TheoremReport`.  Reports are
deterministic: violation lists are sorted by input and truncated at a
configurable cap (the full count is retained), budget-exhausted inputs are
listed separately, and the partitioning of the range cannot influence any
reported field.

The `u-residues-odd-starts` checker is observational: the residue pattern
for odd seeds holds empirically on every range tried but is not a proved
statement, so its findings are reported without affecting exit status.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from collatz_lab import kernels
from collatz_lab.errors import ConfigurationError, require_int
from collatz_lab.kernels import DEFAULT_BUDGET

#: Default violation-list cap; the total count is always kept.
DEFAULT_VIOLATION_CAP = 32


class Violation(NamedTuple):
    input: int
    detail: str


class TheoremReport(NamedTuple):
    theorem_id: str
    lo: int
    hi: int
    checked: int
    violations: tuple[Violation, ...]
    violation_count: int
    budget_exhausted: tuple[int, ...]
    observational: bool = False


ScanPart = tuple[int, list, list]   # (checked, violations, exhausted)


def build_report(
    theorem_id: str,
    lo: int,
    hi: int,
    parts: list[ScanPart],
    cap: int,
    observational: bool = False,
) -> TheoremReport:
    """Merge span results into one report: violations and exhausted inputs
    sorted by input, the first cap violations kept with the total count."""
    violations = sorted(v for _, part, _ in parts for v in part)
    exhausted = sorted(n for _, _, part in parts for n in part)
    return TheoremReport(
        theorem_id=theorem_id,
        lo=lo,
        hi=hi,
        checked=sum(checked for checked, _, _ in parts),
        violations=tuple(Violation(n, d) for n, d in violations[:cap]),
        violation_count=len(violations),
        budget_exhausted=tuple(exhausted),
        observational=observational,
    )


# --- span workers ------------------------------------------------------------
#
# Every checker runs each span as one call of the kernel its CHECKERS entry
# names; the kernel's docstring in `_pure` states the claim it checks.


class _Span:
    """`kernels.<name>(lo, hi[, budget])`, looked up at each call so that a
    test can bind another backend; only a budgeted kernel gets the budget.
    Named after the kernel, in this module: perfbench attributes it to `verify`."""

    def __init__(self, name: str, budgeted: bool):
        self.__name__, self.budgeted = name, budgeted

    def __call__(self, lo: int, hi: int, budget: int) -> ScanPart:
        kernel = getattr(kernels, self.__name__)
        return kernel(lo, hi, budget) if self.budgeted else kernel(lo, hi)


class CheckerSpec(NamedTuple):
    span: Callable[[int, int, int], ScanPart]
    min_lo: int
    observational: bool = False
    min_inputs: int = 1     # the fewest inputs that repay a forked process


#: Each `min_inputs` is about 10 ms of pure kernel work, the cost of a fork,
#: at the span's per-input cost in ROADMAP item 14.
CHECKERS: dict[str, CheckerSpec] = {
    "covering": CheckerSpec(_Span("span_covering", True), 1, min_inputs=1_000),
    "parity-runs": CheckerSpec(_Span("span_parity_runs", False), 1, min_inputs=25_000),
    "u-residues": CheckerSpec(_Span("span_u_residues", True), 2, min_inputs=5_000),
    "u-residues-odd-starts": CheckerSpec(_Span("span_u_residues_odd", True), 1,
                                         observational=True, min_inputs=4_000),
    "x-residues": CheckerSpec(_Span("scan_x_residues", False), 0, min_inputs=20_000),
    "p3n": CheckerSpec(_Span("scan_p3n", False), 0, min_inputs=60_000),
    "dual-forms": CheckerSpec(_Span("span_dual_forms", False), 0, min_inputs=13_000),
    "linear-fixed-point": CheckerSpec(_Span("span_linear_fixed_point", False), 2,
                                      min_inputs=60_000),
    "conjecture-apt": CheckerSpec(_Span("span_conjecture_apt", True), 1,
                                  min_inputs=10_000),
    "conjecture-emapt": CheckerSpec(_Span("span_conjecture_emapt", True), 0,
                                    min_inputs=10_000),
}


def run_check(
    theorem_id: str,
    lo: int,
    hi: int,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    cap: int = DEFAULT_VIOLATION_CAP,
) -> TheoremReport:
    """Run one registered checker over [lo, hi] and assemble its report."""
    spec = CHECKERS.get(theorem_id)
    if spec is None:
        raise ConfigurationError(f"unknown theorem {theorem_id!r}")
    require_int(lo, f"lo for {theorem_id}", spec.min_lo)
    require_int(hi, "hi", lo)
    require_int(budget, "budget", 1)
    require_int(workers, "workers", 1, ConfigurationError)
    require_int(cap, "violation cap", 1, ConfigurationError)
    from collatz_lab.parallel import run_chunked

    workers = max(1, min(workers, (hi - lo + 1) // spec.min_inputs))
    parts = run_chunked(spec.span, lo, hi, workers, args=(budget,))
    return build_report(theorem_id, lo, hi, parts, cap, spec.observational)

