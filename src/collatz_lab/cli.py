"""Command-line harness.

Commands: trace, verify, tree, stats, oeis-check.  Results go to stdout or
--output in the requested --format; stderr carries only errors and, for
verify and oeis-check, a one-line summary of the report, so identical runs
write identical bytes regardless of worker count.  The COLLATZ_LAB_WORKERS
environment variable overrides any --workers flag.

Exit status: 0 on success, 1 when a verification found violations, 2 on
usage, configuration or domain errors, including a worker count below one.
"""

from __future__ import annotations

import argparse
import os
import sys

from collatz_lab import emit as emit_mod
from collatz_lab import oeis, reverse_tree, sequences, verify
from collatz_lab.errors import BFileParseError, ConfigurationError, DomainError


def _workers(text: str) -> int:
    """A worker count from the --workers flag or COLLATZ_LAB_WORKERS: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _trace(ns: argparse.Namespace):
    params = None
    if ns.kind in ("G", "H"):
        if ns.param_a is None or ns.param_b is None:
            raise ConfigurationError(f"kind {ns.kind} requires --param-a and --param-b")
        params = sequences.GParams(ns.param_a, ns.param_b)
    return sequences.trace(ns.kind, ns.start, ns.budget, ns.target, params), 0


def _summarized(report: verify.TheoremReport):
    """Print the report's one-line summary to stderr; pair it with its exit status."""
    print(
        f"{report.theorem_id}: checked {report.checked}, "
        f"violations {report.violation_count}, "
        f"budget-exhausted {len(report.budget_exhausted)} "
        f"[{report.elapsed:.3f}s]",
        file=sys.stderr,
    )
    return report, 1 if report.violation_count > 0 and not report.observational else 0


def _verify(ns: argparse.Namespace):
    report = verify.run_check(
        ns.theorem, ns.lo, ns.hi, ns.budget, ns.workers, ns.max_violations
    )
    return _summarized(report)


def _tree(ns: argparse.Namespace):
    return reverse_tree.build_tree(ns.candidates, ns.depth), 0


def _stats(ns: argparse.Namespace):
    return sequences.stopping_stats(ns.lo, ns.hi, ns.budget, ns.workers), 0


def _oeis(ns: argparse.Namespace):
    try:
        with open(ns.bfile, encoding="utf-8") as handle:
            content = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {ns.bfile}: {exc}") from exc
    return _summarized(oeis.check_oeis(content, ns.generator, ns.count))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatz-lab",
        description="Exact sequence engines, reverse-tree enumeration and "
        "range checks for the Collatz map family.",
    )
    # commands without --workers still carry one for COLLATZ_LAB_WORKERS
    parser.set_defaults(workers=1)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, result_type: type, handler) -> None:
        p.add_argument("--format", default="text", choices=emit_mod.formats(result_type))
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        p.set_defaults(handler=handler)

    p_trace = sub.add_parser("trace", help="iterate one map from a start value")
    p_trace.add_argument("--kind", required=True, choices=sequences.TRACE_KINDS)
    p_trace.add_argument("--start", required=True, type=int)
    p_trace.add_argument("--budget", type=int, default=verify.DEFAULT_BUDGET)
    p_trace.add_argument("--target", type=int, default=None,
                         help="stop value; defaults per kind")
    p_trace.add_argument("--param-a", type=int, default=None,
                         help="odd multiplier for kinds G and H")
    p_trace.add_argument("--param-b", type=int, default=None,
                         help="odd offset for kinds G and H")
    add_io(p_trace, sequences.Trace, _trace)

    p_verify = sub.add_parser("verify", help="run a range checker")
    p_verify.add_argument("--theorem", required=True, choices=sorted(verify.CHECKERS))
    p_verify.add_argument("--lo", required=True, type=int)
    p_verify.add_argument("--hi", required=True, type=int)
    p_verify.add_argument("--budget", type=int, default=verify.DEFAULT_BUDGET)
    p_verify.add_argument("--workers", type=_workers, default=1)
    p_verify.add_argument("--max-violations", type=int,
                          default=verify.DEFAULT_VIOLATION_CAP,
                          help="cap on listed counterexamples")
    add_io(p_verify, verify.TheoremReport, _verify)

    p_tree = sub.add_parser("tree", help="build the reverse candidate tree")
    p_tree.add_argument("--candidates", type=int, default=100,
                        help="how many candidates to enumerate")
    p_tree.add_argument("--depth", type=int, default=16,
                        help="breadth-first depth bound")
    add_io(p_tree, reverse_tree.WZTree, _tree)

    p_stats = sub.add_parser("stats", help="orbit-length table over a range")
    p_stats.add_argument("--lo", required=True, type=int)
    p_stats.add_argument("--hi", required=True, type=int)
    p_stats.add_argument("--budget", type=int, default=verify.DEFAULT_BUDGET)
    p_stats.add_argument("--workers", type=_workers, default=1)
    add_io(p_stats, sequences.StatsTable, _stats)

    p_oeis = sub.add_parser("oeis-check", help="compare a generator to a b-file")
    p_oeis.add_argument("--bfile", required=True, help="path to the b-file")
    p_oeis.add_argument("--generator", required=True, choices=sorted(oeis.GENERATORS))
    p_oeis.add_argument("--count", type=int, default=10_000)
    add_io(p_oeis, verify.TheoremReport, _oeis)

    return parser


def parse_cli(argv: list[str]) -> argparse.Namespace:
    """Parse and validate arguments; argparse exits with status 2 on misuse.

    The namespace's ``handler`` runs its command and returns the result with
    the exit status.  COLLATZ_LAB_WORKERS, when set, replaces ``workers``.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    env_workers = os.environ.get("COLLATZ_LAB_WORKERS")
    if env_workers is not None:
        try:
            ns.workers = _workers(env_workers)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"COLLATZ_LAB_WORKERS {exc}")
    return ns


def run(ns: argparse.Namespace) -> int:
    """Execute a parsed command and write its result to the sink."""
    try:
        result, status = ns.handler(ns)
    except (DomainError, ConfigurationError, BFileParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if ns.output is None:
            emit_mod.emit(result, ns.format, sys.stdout)
        else:
            with open(ns.output, "w", encoding="utf-8", newline="") as sink:
                emit_mod.emit(result, ns.format, sink)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        ns = parse_cli(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2
    return run(ns)


if __name__ == "__main__":
    sys.exit(main())
