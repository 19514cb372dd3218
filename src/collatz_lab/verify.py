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


# --- span workers (top-level so process pools can pickle them) ---------------
#
# Seven checkers run each span as one kernel call (covering, parity-runs,
# u-residues, u-residues-odd-starts, dual-forms and the two reach sweeps);
# their functions here stay the CHECKERS entries, so a span is still named
# after this module.


def _span_covering(lo: int, hi: int, budget: int) -> ScanPart:
    """Accelerated orbit embeds in half-step orbit embeds in plain orbit,
    with the matching length chain, for every n in range that finishes."""
    return kernels.span_covering(lo, hi, budget)


def _span_parity_runs(lo: int, hi: int, budget: int) -> ScanPart:
    """Observed parity-run lengths match the closed-form exponents."""
    return kernels.span_parity_runs(lo, hi)


def _span_u_residues(lo: int, hi: int, budget: int) -> ScanPart:
    """Even-engine images are 2 mod 6, and 2 or 8 mod 18 past the first image."""
    return kernels.span_u_residues(lo, hi, budget)


def _span_u_residues_odd(lo: int, hi: int, budget: int) -> ScanPart:
    """Observational: odd seeds show the same mod-18 pattern past the first image."""
    return kernels.span_u_residues_odd(lo, hi, budget)


def _span_x_residues(lo: int, hi: int, budget: int) -> ScanPart:
    """Index-map images avoid residue 2 mod 3."""
    bad = kernels.scan_x_residues(lo, hi)
    return hi - lo + 1, [(x, "image is 2 mod 3") for x in bad], []


def _span_p3n(lo: int, hi: int, budget: int) -> ScanPart:
    """p(3n) avoids residue 1 mod 3."""
    bad = kernels.scan_p3n(lo, hi)
    return hi - lo + 1, [(n, "p(3n) is 1 mod 3") for n in bad], []


def _span_dual_forms(lo: int, hi: int, budget: int) -> ScanPart:
    """The two even-engine formulations agree, and both index maps agree
    with the accelerated step."""
    return kernels.span_dual_forms(lo, hi)


def _span_linear_fixed_point(lo: int, hi: int, budget: int) -> ScanPart:
    """Exact linear and fixed-point identities for consecutive even pairs,
    plus round-trip through the inverse affine step."""
    from collatz_lab.reverse_tree import reverse_affine_step

    violations = []
    seeds = range(lo + (2 - lo) % 6, hi + 1, 6)   # u = 2 mod 6
    for u in seeds:
        succ = kernels.emapt_step_pq(u)
        v = kernels.odd_part(u)
        alpha = kernels.ruler(v + 1) - 1
        beta = kernels.ruler(u) - 1
        lhs = (succ << (alpha + beta))
        rhs = 3**alpha * u + (3**alpha - 2**alpha) * 2**beta
        if lhs != rhs:
            violations.append((u, "linear relation failed"))
            continue
        if (succ + 1) << alpha != (v + 1) * 3**alpha:
            violations.append((u, "fixed-point relation failed"))
            continue
        if reverse_affine_step(succ, alpha, beta) != u:
            violations.append((u, "inverse step does not recover the input"))
    return len(seeds), violations, []


def _span_conjecture_apt(lo: int, hi: int, budget: int) -> ScanPart:
    """Reach sweep: does the accelerated orbit of n reach 1 within budget.
    Non-reaching starts are reported as budget-exhausted, not violations."""
    return kernels.span_conjecture_apt(lo, hi, budget)


def _span_conjecture_emapt(lo: int, hi: int, budget: int) -> ScanPart:
    """Reach sweep: does the even engine reach 2 from 6n + 2 within budget.
    Non-reaching starts are reported as budget-exhausted, not violations."""
    return kernels.span_conjecture_emapt(lo, hi, budget)


class CheckerSpec(NamedTuple):
    span: Callable[[int, int, int], ScanPart]
    min_lo: int
    observational: bool = False


CHECKERS: dict[str, CheckerSpec] = {
    "covering": CheckerSpec(_span_covering, 1),
    "parity-runs": CheckerSpec(_span_parity_runs, 1),
    "u-residues": CheckerSpec(_span_u_residues, 2),
    "u-residues-odd-starts": CheckerSpec(_span_u_residues_odd, 1, observational=True),
    "x-residues": CheckerSpec(_span_x_residues, 0),
    "p3n": CheckerSpec(_span_p3n, 0),
    "dual-forms": CheckerSpec(_span_dual_forms, 0),
    "linear-fixed-point": CheckerSpec(_span_linear_fixed_point, 2),
    "conjecture-apt": CheckerSpec(_span_conjecture_apt, 1),
    "conjecture-emapt": CheckerSpec(_span_conjecture_emapt, 0),
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

    parts = run_chunked(spec.span, lo, hi, workers, args=(budget,))
    return build_report(theorem_id, lo, hi, parts, cap, spec.observational)

