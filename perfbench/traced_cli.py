"""Run one collatz-lab command with spans around its module calls.

    python perfbench/traced_cli.py SPANS_OUT -- <collatz-lab arguments>

The package is wrapped from outside, nothing in it is edited: the command
entry points in ``verify``, ``sequences``, ``reverse_tree`` and ``oeis``,
``parallel.run_chunked`` with each span it cuts, and ``emit.emit``.  Stdout
and the exit status are the CLI's own.  The spans go to SPANS_OUT as JSON.
"""

import time

T_MAIN = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from spans import Recorder  # noqa: E402


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_OUT -- ARGS...")
    rec = Recorder()
    with rec.span("cli.import"):
        from collatz_lab import cli, emit, oeis, parallel, reverse_tree, sequences, verify
    rec.wrap(verify, "run_check", "verify.run_check")
    rec.wrap(sequences, "stopping_stats", "sequences.stopping_stats")
    rec.wrap(sequences, "trace", "sequences.trace")
    rec.wrap(reverse_tree, "build_tree", "reverse_tree.build_tree")
    rec.wrap(oeis, "check_oeis", "oeis.check_oeis")
    rec.wrap(emit, "emit", "emit.emit")
    rec.wrap_run_chunked(parallel)
    with rec.span("cli.main"):
        status = cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"t_main": T_MAIN, "spans": rec.spans}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
