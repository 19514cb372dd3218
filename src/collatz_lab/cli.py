"""Command-line harness.

Commands: trace, verify, tree, stats, oeis-check.  Results go to stdout or
--output in the requested --format; stderr carries only errors and, for
verify and oeis-check, a one-line summary of the report, so identical runs
write identical bytes regardless of worker count.  The COLLATZ_LAB_WORKERS
environment variable overrides any --workers flag.

Exit status: 0 on success, 1 when a verification found violations, 2 on
usage, configuration or domain errors, including a worker count below one,
and 3 on an internal error such as a crashed worker process.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from collatz_lab import emit as emit_mod
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


# Each command imports its modules when its arguments are added or it runs,
# and calls through them, so the benchmark's wrappers see the calls.


def _trace_args(p: argparse.ArgumentParser) -> type:
    from collatz_lab import kernels, sequences

    p.add_argument("--kind", required=True, choices=sequences.TRACE_KINDS)
    p.add_argument("--start", required=True, type=int)
    p.add_argument("--budget", type=int, default=kernels.DEFAULT_BUDGET)
    p.add_argument("--target", type=int, default=None,
                   help="stop value; defaults per kind")
    p.add_argument("--param-a", type=int, default=None,
                   help="odd multiplier for kinds G and H")
    p.add_argument("--param-b", type=int, default=None,
                   help="odd offset for kinds G and H")
    return sequences.Trace


def _trace(ns: argparse.Namespace):
    from collatz_lab import sequences

    params = None
    if ns.kind in ("G", "H"):
        if ns.param_a is None or ns.param_b is None:
            raise ConfigurationError(f"kind {ns.kind} requires --param-a and --param-b")
        params = sequences.GParams(ns.param_a, ns.param_b)
    return sequences.trace(ns.kind, ns.start, ns.budget, ns.target, params), 0


def _summarized(check, *args):
    """Run check(*args), print the report's one-line summary with the call's
    wall time to stderr, and pair the report with its exit status."""
    t0 = time.perf_counter()
    report = check(*args)
    print(
        f"{report.theorem_id}: checked {report.checked}, "
        f"violations {report.violation_count}, "
        f"budget-exhausted {len(report.budget_exhausted)} "
        f"[{time.perf_counter() - t0:.3f}s]",
        file=sys.stderr,
    )
    return report, 1 if report.violation_count > 0 and not report.observational else 0


def _verify_args(p: argparse.ArgumentParser) -> type:
    from collatz_lab import verify

    p.add_argument("--theorem", required=True, choices=sorted(verify.CHECKERS))
    p.add_argument("--lo", required=True, type=int)
    p.add_argument("--hi", required=True, type=int)
    p.add_argument("--budget", type=int, default=verify.DEFAULT_BUDGET)
    p.add_argument("--workers", type=_workers, default=1)
    p.add_argument("--max-violations", type=int,
                   default=verify.DEFAULT_VIOLATION_CAP,
                   help="cap on listed counterexamples")
    return verify.TheoremReport


def _verify(ns: argparse.Namespace):
    from collatz_lab import verify

    return _summarized(
        verify.run_check,
        ns.theorem, ns.lo, ns.hi, ns.budget, ns.workers, ns.max_violations,
    )


def _tree_args(p: argparse.ArgumentParser) -> type:
    from collatz_lab import reverse_tree

    p.add_argument("--candidates", type=int, default=100,
                   help="how many candidates to enumerate")
    p.add_argument("--depth", type=int, default=16,
                   help="breadth-first depth bound")
    return reverse_tree.WZTree


def _tree(ns: argparse.Namespace):
    from collatz_lab import reverse_tree

    return reverse_tree.build_tree(ns.candidates, ns.depth), 0


def _stats_args(p: argparse.ArgumentParser) -> type:
    from collatz_lab import kernels, sequences

    p.add_argument("--lo", required=True, type=int)
    p.add_argument("--hi", required=True, type=int)
    p.add_argument("--budget", type=int, default=kernels.DEFAULT_BUDGET)
    p.add_argument("--workers", type=_workers, default=1)
    return sequences.StatsTable


def _stats(ns: argparse.Namespace):
    from collatz_lab import sequences

    return sequences.stopping_stats(ns.lo, ns.hi, ns.budget, ns.workers), 0


def _oeis_args(p: argparse.ArgumentParser) -> type:
    from collatz_lab import oeis, verify

    p.add_argument("--bfile", required=True, help="path to the b-file")
    p.add_argument("--generator", required=True, choices=sorted(oeis.GENERATORS))
    p.add_argument("--count", type=int, default=10_000)
    return verify.TheoremReport


def _oeis(ns: argparse.Namespace):
    from collatz_lab import oeis

    try:
        with open(ns.bfile, encoding="utf-8") as handle:
            content = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {ns.bfile}: {exc}") from exc
    return _summarized(oeis.check_oeis, content, ns.generator, ns.count)


#: Per command: its help line, the function that adds its arguments and
#: returns its result type, and its handler.
_COMMANDS = {
    "trace": ("iterate one map from a start value", _trace_args, _trace),
    "verify": ("run a range checker", _verify_args, _verify),
    "tree": ("build the reverse candidate tree", _tree_args, _tree),
    "stats": ("orbit-length table over a range", _stats_args, _stats),
    "oeis-check": ("compare a generator to a b-file", _oeis_args, _oeis),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, but with arguments only for ``command`` when it names
    one: the other subcommands keep their help line and import nothing."""
    parser = argparse.ArgumentParser(
        prog="collatz-lab",
        description="Exact sequence engines, reverse-tree enumeration and "
        "range checks for the Collatz map family.",
    )
    # commands without --workers still carry one for COLLATZ_LAB_WORKERS
    parser.set_defaults(workers=1)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            result_type = add_args(p)
            p.add_argument("--format", default="text",
                           choices=emit_mod.formats(result_type))
            p.add_argument("--output", default=None,
                           help="write to this path instead of stdout")
            p.set_defaults(handler=handler)
    return parser


def parse_cli(argv: list[str]) -> argparse.Namespace:
    """Parse and validate arguments; argparse exits with status 2 on misuse.

    The namespace's ``handler`` runs its command and returns the result with
    the exit status.  COLLATZ_LAB_WORKERS, when set, replaces ``workers``.
    """
    # The top-level parser takes no option values, so its first positional
    # argument is the command.
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = _build_parser(command if command in _COMMANDS else None)
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
            # newline="" keeps the writers' "\n" line ends untranslated on every platform
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
    try:
        return run(ns)
    except Exception as exc:   # a crashed span or worker must not read as "violations"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
