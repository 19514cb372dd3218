"""Independent checks of CLI output, written against the plain map only.

Nothing here imports collatz_lab.  Each check parses one command's stdout,
returns the number of inputs it covers, and raises ``OracleMismatch`` when the
output disagrees with a brute-force recomputation:

* verify: the reported count matches the window, nothing failed or ran out,
  and sampled starts of reach sweeps reach 1 under the plain map;
* stats: sampled rows match plain, half-step and accelerated orbit lengths;
* tree: sampled edges match parents recomputed from the plain map;
* trace: every step matches the literal map of its kind.
"""

from __future__ import annotations

import csv
import io
import json
import random

SAMPLES = 24
REACH_CAP = 1_000_000


class OracleMismatch(Exception):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise OracleMismatch(what)


def plain_step(n: int) -> int:
    return n >> 1 if n % 2 == 0 else 3 * n + 1


def half_step(n: int) -> int:
    return n >> 1 if n % 2 == 0 else (3 * n + 1) >> 1


def accelerated_step(n: int) -> int:
    """One whole parity run of the half-step map, taken step by step."""
    parity = n % 2
    n = half_step(n)
    while n != 1 and n % 2 == parity:
        n = half_step(n)
    return n


def orbit_length(step, n: int) -> int:
    """Elements of the orbit from n down to 1, both ends counted."""
    count = 1
    while n != 1:
        n = step(n)
        count += 1
        _expect(count <= REACH_CAP, f"orbit of {n} exceeds {REACH_CAP} steps")
    return count


def tree_parent(w: int) -> tuple[int, int]:
    """(z, parent) of candidate w: plain-map odd run to z, then halve to odd."""
    z = w
    while z % 2:
        z = plain_step(plain_step(z))
    parent = z
    while parent % 2 == 0:
        parent = plain_step(parent)
    return z, parent


def _expected_checked(theorem: str, lo: int, hi: int) -> int:
    evens = len(range(max(lo, 2) + max(lo, 2) % 2, hi + 1, 2))
    if theorem == "u-residues":
        return evens
    if theorem == "u-residues-odd-starts":
        return len(range(max(lo, 1) | 1, hi + 1, 2))
    if theorem == "dual-forms":
        return evens + len(range(max(lo, 0), hi + 1))
    if theorem == "linear-fixed-point":
        return sum(1 for u in range(max(lo, 2), hi + 1) if u % 6 == 2)
    return hi - lo + 1


def check_verify(out: bytes, check: dict, rng: random.Random) -> int:
    report = json.loads(out)
    theorem, lo, hi = check["theorem"], check["lo"], check["hi"]
    _expect(report["theorem_id"] == theorem, "wrong theorem id")
    checked = int(report["checked"])
    _expect(checked == _expected_checked(theorem, lo, hi), f"checked {checked}")
    _expect(report["violation_count"] == "0", "violations reported")
    _expect(report["budget_exhausted"] == [], "budget exhausted")
    if theorem in ("conjecture-apt", "conjecture-emapt", "covering"):
        for n in rng.sample(range(lo, hi + 1), min(SAMPLES, hi - lo + 1)):
            orbit_length(plain_step, 6 * n + 2 if theorem == "conjecture-emapt" else n)
    return checked


def check_stats(out: bytes, check: dict, rng: random.Random) -> int:
    text = out.decode()
    if check["format"] == "json":
        rows = [
            (int(r["n"]), int(r["c_len"]), int(r["t_len"]), int(r["a_len"]), r["exhausted"])
            for r in json.loads(text)["rows"]
        ]
    else:
        reader = csv.reader(io.StringIO(text))
        _expect(next(reader) == ["n", "c_len", "t_len", "a_len", "exhausted"], "csv header")
        rows = [(int(n), int(c), int(t), int(a), e == "true") for n, c, t, a, e in reader]
    lo, hi = check["lo"], check["hi"]
    _expect([r[0] for r in rows] == list(range(lo, hi + 1)), "row starts")
    for n, c_len, t_len, a_len, exhausted in rng.sample(rows, min(SAMPLES, len(rows))):
        _expect(not exhausted, f"row {n} exhausted")
        _expect(c_len == orbit_length(plain_step, n), f"c_len of {n}")
        _expect(t_len == orbit_length(half_step, n), f"t_len of {n}")
        _expect(a_len == orbit_length(accelerated_step, n), f"a_len of {n}")
    return len(rows)


def check_tree(out: bytes, check: dict, rng: random.Random) -> int:
    text = out.decode()
    if check["format"] == "json":
        tree = json.loads(text)
        parent_of = {
            int(c): int(node["w"]) for node in tree["nodes"] for c in node["children"]
        }
        z_of = {int(node["w"]): int(node["z"]) for node in tree["nodes"]}
        parent_of.update((int(o["w"]), int(o["parent"])) for o in tree["orphans"])
        total = len(tree["nodes"]) + len(tree["orphans"])
    else:
        parent_of, z_of = {}, {}
        total = 0
        for line in text.splitlines()[1:-1]:
            head, _, rest = line.strip().partition(" ")
            if rest.startswith("->"):
                parent_of[int(head)] = int(rest[2:].split()[0].rstrip(";"))
            elif "outside tree" in rest:
                parent_of[int(head)] = int(rest.split('comment="parent ')[1].split()[0])
                total += 1
            else:
                z_of[int(head)] = int(rest.split("(")[1].split(")")[0])
                total += 1
    _expect(total == check["candidates"], f"{total} candidates")
    for w in rng.sample(sorted(parent_of), min(SAMPLES, len(parent_of))):
        z, parent = tree_parent(w)
        _expect(parent_of[w] == parent, f"parent of {w}")
        _expect(z_of.get(w, z) == z, f"z of {w}")
    return total


def check_trace(out: bytes, check: dict, rng: random.Random) -> int:
    trace = json.loads(out)
    step = {
        "A": accelerated_step,
        "G": half_step,   # (a, b) = (3, 1)
        "U": lambda u: accelerated_step(accelerated_step(u)),
    }[check["kind"]]
    elements = [int(x) for x in trace["elements"]]
    _expect(elements[0] == check["start"], "trace start")
    _expect(trace["outcome"] == "reached-target", "trace outcome")
    _expect(elements[-1] == (2 if check["kind"] == "U" else 1), "trace target")
    for x, y in zip(elements, elements[1:]):
        _expect(step(x) == y, f"trace step from {x}")
    return len(elements)


def check_oeis(out: bytes, check: dict, rng: random.Random) -> int:
    report = json.loads(out)
    _expect(report["violation_count"] == "0", "b-file mismatch")
    _expect(int(report["checked"]) == check["count"], "b-file terms")
    return check["count"]


CHECKS = {
    "verify": check_verify,
    "stats": check_stats,
    "tree": check_tree,
    "trace": check_trace,
    "oeis-check": check_oeis,
}
