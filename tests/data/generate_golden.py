"""Regenerate tests/data/golden.json, the recorded output of the CLI.

Each key is one `collatz-lab` command line; its value is the sha256 of the
bytes the command writes to stdout and its exit status.  The commands:

* every `verify` checker on a low window, in every format, at the default
  budget;
* the five budgeted checkers on the same window at `--budget 5`, where
  most inputs exhaust.

`tests/test_golden.py` runs each line through `cli.main` in process, on
both kernel backends, and a subset at `--workers 2`.  A change that means
to alter output regenerates this file and names each changed entry.  Each
line runs here as its own `python -m collatz_lab.cli` process, from this
checkout's `src`, at one worker.

Run from anywhere: python tests/data/generate_golden.py
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

#: checker: (first input of its domain, whether it takes a budget)
CHECKERS = {
    "covering": (1, True),
    "parity-runs": (1, False),
    "u-residues": (2, True),
    "u-residues-odd-starts": (1, True),
    "x-residues": (0, False),
    "p3n": (0, False),
    "dual-forms": (0, False),
    "linear-fixed-point": (2, False),
    "conjecture-apt": (1, True),
    "conjecture-emapt": (0, True),
}
HI = 3000
FORMATS = ("text", "json", "csv")


def command_lines() -> list[str]:
    lines = []
    for budget in (None, 5):
        for checker, (lo, budgeted) in CHECKERS.items():
            if budget is not None and not budgeted:
                continue
            for fmt in FORMATS:
                line = f"verify --theorem {checker} --lo {lo} --hi {HI} --format {fmt}"
                lines.append(line if budget is None else f"{line} --budget {budget}")
    return lines


def record(line: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COLLATZ_LAB_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "collatz_lab.cli", *line.split()],
        capture_output=True,
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
