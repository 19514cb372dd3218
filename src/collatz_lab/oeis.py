"""OEIS b-file parsing and sequence cross-checks.

A b-file is the OEIS bulk format: one "index value" pair per line, '#'
comments and blank lines ignored, indices strictly increasing.  The checker
compares a parsed b-file against one of the registered generators, honoring
that sequence's configured start index.  Files are supplied by the caller;
nothing is fetched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from collatz_lab import arith, reverse_tree
from collatz_lab.errors import BFileParseError, ConfigurationError, require_int
from collatz_lab.verify import DEFAULT_VIOLATION_CAP, TheoremReport, build_report


@dataclass(frozen=True)
class SequenceSpec:
    generator: Callable[[int], int]
    first_index: int
    oeis_id: str


GENERATORS: dict[str, SequenceSpec] = {
    "ruler": SequenceSpec(arith.ruler, 1, "A001511"),
    "interleave_p": SequenceSpec(arith.interleave_p, 0, "A025480"),
    "w_candidate": SequenceSpec(reverse_tree.w_candidate, 1, "A007310"),
}


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse b-file text into (index, value) pairs, validating monotonicity."""
    pairs: list[tuple[int, int]] = []
    previous = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileParseError(line_no, f"expected two fields, got {len(fields)}")
        try:
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise BFileParseError(line_no, f"non-integer field in {line!r}") from None
        if previous is not None and index <= previous:
            raise BFileParseError(
                line_no, f"index {index} not greater than previous {previous}"
            )
        previous = index
        pairs.append((index, value))
    return pairs


def check_oeis(
    bfile_content: str,
    generator_id: str,
    count: int,
    cap: int = DEFAULT_VIOLATION_CAP,
) -> TheoremReport:
    """Compare the first count b-file terms against a registered generator.

    A start-index mismatch between the file and the generator's configured
    offset is a configuration error, not a sequence violation.
    """
    spec = GENERATORS.get(generator_id)
    if spec is None:
        known = ", ".join(sorted(GENERATORS))
        raise ConfigurationError(
            f"unknown generator {generator_id!r} (known: {known})"
        )
    require_int(count, "count", 1, ConfigurationError)
    require_int(cap, "cap", 1, ConfigurationError)
    pairs = parse_bfile(bfile_content)
    if len(pairs) < count:
        raise ConfigurationError(
            f"b-file holds {len(pairs)} terms, {count} requested"
        )
    if pairs[0][0] != spec.first_index:
        raise ConfigurationError(
            f"offset mismatch: b-file starts at {pairs[0][0]}, "
            f"{generator_id} starts at {spec.first_index}"
        )
    violations = []
    for index, value in pairs[:count]:
        expected = spec.generator(index)
        if expected != value:
            violations.append((index, f"file has {value}, generator gives {expected}"))
    return build_report(
        f"oeis-{spec.oeis_id}-{generator_id}",
        pairs[0][0],
        pairs[count - 1][0],
        [(count, violations, [])],
        cap,
    )
