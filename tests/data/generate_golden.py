"""Regenerate tests/data/golden.json, the recorded output of the CLI.

Each key is one `collatz-lab` command line; its value is the sha256 of the
bytes the command writes to stdout and its exit status.  The commands:

* every `verify` checker on a low window, in every format, at the default
  budget, and the five budgeted checkers on the same window at
  `--budget 5`, where most inputs exhaust;
* `verify` windows across each uint64 limit of a compiled span (SAFE3,
  SAFE_N, U64_MAX - 5, (U64_MAX - 2) / 6 and 2^64), and 2^68 windows of
  the orbit and residue walks, at the default budget and at `--budget 30`,
  where walks exhaust;
* `stats` at the default budget, at `--budget 20` and from 2^68; `tree`;
  `trace` of every kind; `oeis-check` of each b-file fixture; each in
  every format its command takes.

`tests/test_cli.py::test_output_matches_golden` runs each line through
`cli.main` in process, from the repository root, on both kernel backends,
and the `verify` and `stats` JSON lines again at `--workers 2`.  A change
that means to alter output regenerates this file and names each changed
entry.  Each line runs here as its own `python -m collatz_lab.cli` process,
from this checkout's `src` and the repository root, at one worker.

Run from anywhere: python tests/data/generate_golden.py
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from collatz_lab import verify  # noqa: E402

HI = 3000
FORMATS = ("text", "json", "csv")
U64_MAX = 2**64 - 1
SAFE3 = (U64_MAX - 1) // 3
#: Per checker, the limits past which its compiled span hands `_pure` work.
EDGES = {
    "p3n": [SAFE3],
    "x-residues": [SAFE3],
    "parity-runs": [SAFE3],
    "dual-forms": [2**62],   # SAFE_N
    "linear-fixed-point": [U64_MAX - 5],
    "conjecture-emapt": [(U64_MAX - 2) // 6],
    "u-residues": [2**64],
    "u-residues-odd-starts": [2**64],
    "covering": [2**64],
    "conjecture-apt": [2**64],
}
#: The walks run from 2^68, where every value is a bigint.
FAR = ("covering", "conjecture-apt", "conjecture-emapt", "u-residues", "u-residues-odd-starts")
#: trace kind: its start and extra options
TRACES = {
    "C": "--start 27",
    "T": "--start 27",
    "A": "--start 27",
    "U": "--start 164",
    "V": "--start 27",
    "X": "--start 27",
    "G": "--start 27 --param-a 3 --param-b 1",
    "H": "--start 7 --param-a 5 --param-b 3 --budget 40",
}
BFILES = {"ruler": "b001511", "interleave_p": "b025480", "w_candidate": "b007310"}


def command_lines() -> list[str]:
    lines = []

    def each_format(line: str, formats=FORMATS, after: str = "") -> None:
        lines.extend(f"{line} --format {fmt}{after}" for fmt in formats)

    for budget in (None, 5):
        for checker, spec in verify.CHECKERS.items():
            if budget is None or spec.span.budgeted:
                each_format(f"verify --theorem {checker} --lo {spec.min_lo} --hi {HI}",
                            after="" if budget is None else f" --budget {budget}")
    for checker, edges in EDGES.items():
        for edge in edges:
            each_format(f"verify --theorem {checker} --lo {edge - 20} --hi {edge + 20}")
    for checker in FAR:
        for budget in ("", " --budget 30"):
            each_format(f"verify --theorem {checker} --lo {2**68} --hi {2**68 + 200}{budget}")
    for window in ("--lo 1 --hi 3000", "--lo 1 --hi 3000 --budget 20",
                   f"--lo {2**68} --hi {2**68 + 200}"):
        each_format(f"stats {window}")
    each_format("tree --candidates 500 --depth 12", ("text", "json", "dot"))
    for kind, options in TRACES.items():
        each_format(f"trace --kind {kind} {options}")
    for generator, name in BFILES.items():
        each_format(f"oeis-check --bfile tests/data/{name}.txt --generator {generator}")
    return lines


def record(line: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COLLATZ_LAB_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "collatz_lab.cli", *line.split()],
        capture_output=True,
        cwd=ROOT,
        env=env,
        check=False,
    )
    return {"sha256": hashlib.sha256(proc.stdout).hexdigest(), "status": proc.returncode}


def main() -> None:
    golden = {line: record(line) for line in command_lines()}
    path = HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} command lines to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
