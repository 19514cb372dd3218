"""Seeded command lists for the benchmark workloads.

The seed moves window offsets only; every size is fixed per workload (times
``scale``, which only the smoke test changes).  A window of consecutive
starts has a mean orbit length set largely by its high bits, so windows at
unrelated offsets differ in work by up to 15%.  The seed therefore moves a
window by less than a quarter of its size from a fixed base: 8.5e6 for the
low workloads and 2**68 for the frontier, where every orbit value is a
bigint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

LOW = 8_500_000
FRONTIER = 2**68
BIG_TRACE = 2**256
FIXTURES = (
    ("tests/data/b001511.txt", "ruler"),
    ("tests/data/b025480.txt", "interleave_p"),
    ("tests/data/b007310.txt", "w_candidate"),
)
OEIS_TERMS = 10_000


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``check`` holds what the oracles need."""

    kind: str                       # verify, stats, tree, oeis-check, trace
    args: tuple[str, ...]
    check: dict = field(default_factory=dict, compare=False)

    def with_workers(self, workers: int) -> "Command":
        if "--workers" not in self.args:
            return self
        args = list(self.args)
        args[args.index("--workers") + 1] = str(workers)
        return Command(self.kind, tuple(args), self.check)


def window(rng: random.Random, size: int, base: int = LOW) -> tuple[int, int]:
    lo = base + rng.randrange(size // 4 + 1)
    return lo, lo + size - 1


def scaled(n: int, scale: float, floor: int = 8) -> int:
    return max(floor, int(n * scale))


def verify_cmd(theorem: str, lo: int, hi: int, workers: int) -> Command:
    return Command(
        "verify",
        ("verify", "--theorem", theorem, "--lo", str(lo), "--hi", str(hi),
         "--workers", str(workers), "--format", "json"),
        {"theorem": theorem, "lo": lo, "hi": hi},
    )


def stats_cmd(lo: int, hi: int, workers: int, fmt: str) -> Command:
    return Command(
        "stats",
        ("stats", "--lo", str(lo), "--hi", str(hi), "--workers", str(workers),
         "--format", fmt),
        {"lo": lo, "hi": hi, "format": fmt},
    )


def tree_cmd(candidates: int, depth: int, fmt: str) -> Command:
    return Command(
        "tree",
        ("tree", "--candidates", str(candidates), "--depth", str(depth), "--format", fmt),
        {"candidates": candidates, "format": fmt},
    )


def trace_cmd(kind: str, start: int, params: tuple[int, int] | None = None) -> Command:
    args = ["trace", "--kind", kind, "--start", str(start)]
    if params:
        args += ["--param-a", str(params[0]), "--param-b", str(params[1])]
    return Command("trace", tuple(args + ["--format", "json"]), {"kind": kind, "start": start})


def commands(name: str, seed: int, nproc: int, scale: float = 1.0) -> list[Command]:
    """The fixed command list of one workload, with seeded windows."""
    rng = random.Random(f"{name}/{seed}")
    s = lambda n: scaled(n, scale)  # noqa: E731
    if name == "sweep":
        return [
            verify_cmd("conjecture-apt", *window(rng, s(80_000)), nproc),
            verify_cmd("conjecture-emapt", *window(rng, s(40_000)), nproc),
            verify_cmd("covering", *window(rng, s(8_000)), nproc),
        ]
    if name == "frontier":
        lo, hi = window(rng, s(40_000), FRONTIER)
        return [verify_cmd("conjecture-apt", lo, hi, nproc)]
    if name == "checkers":
        sizes = {
            "u-residues": 25_000,
            "u-residues-odd-starts": 25_000,
            "parity-runs": 100_000,
            "dual-forms": 100_000,
            "linear-fixed-point": 100_000,
            "x-residues": 100_000,
            "p3n": 500_000,
        }
        return [verify_cmd(t, *window(rng, s(n)), 1) for t, n in sizes.items()]
    if name == "tables":
        candidates = s(20_000)
        return [
            stats_cmd(*window(rng, s(5_000)), nproc, "csv"),
            stats_cmd(*window(rng, s(5_000)), nproc, "json"),
            tree_cmd(candidates, 40, "json"),
            tree_cmd(candidates, 40, "dot"),
            *(
                Command(
                    "oeis-check",
                    ("oeis-check", "--bfile", path, "--generator", gen,
                     "--count", str(s(OEIS_TERMS)), "--format", "json"),
                    {"count": s(OEIS_TERMS)},
                )
                for path, gen in FIXTURES
            ),
            trace_cmd("A", LOW + rng.randrange(10**6)),
            trace_cmd("U", LOW + 2 * rng.randrange(10**6)),
            trace_cmd("G", LOW + rng.randrange(10**6), (3, 1)),
            trace_cmd("A", BIG_TRACE + rng.randrange(2**64)),
        ]
    raise ValueError(f"unknown workload {name!r}")
