"""Independent reference implementations used only by the test suite.

Everything here is computed straight from defining recursions or by literal
brute force, with no shortcuts shared with the package code.  Tests compare
package output against these, so keep them slow and obvious.

Most checker-span references are the exception: they are the `verify`
checker loops as they stood before the span kernels, one standalone `_pure`
kernel call per step, so they share those kernels (which the tests check
against the recursions above) but none of the kernels' inlined formulas.
The two scan references, `p3n_span` and `x_residues_span`, and
`linear_fixed_point_span` use only the recursions and literal iterations
here.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from collatz_lab import _pure
from collatz_lab.sequences import mapt_even_step, mapt_odd_step


def v2_by_division(n: int) -> int:
    """2-adic valuation by repeated division."""
    if n <= 0:
        raise ValueError("positive n required")
    count = 0
    while n % 2 == 0:
        n //= 2
        count += 1
    return count


def ruler_rec(n: int, _memo: dict = {1: 1}) -> int:
    """r(1) = 1, r(2n) = r(n) + 1, r(2n+1) = 1."""
    if n in _memo:
        return _memo[n]
    stack = []
    m = n
    while m not in _memo:
        if m % 2 == 1:
            _memo[m] = 1
            break
        stack.append(m)
        m //= 2
    while stack:
        m = stack.pop()
        _memo[m] = _memo[m // 2] + 1
    return _memo[n]


def p_rec(n: int, _memo: dict = {0: 0}) -> int:
    """p(0) = 0, p(2n) = n, p(2n+1) = p(n)."""
    if n in _memo:
        return _memo[n]
    chain = []
    m = n
    while m not in _memo:
        if m % 2 == 0:
            _memo[m] = m // 2
            break
        chain.append(m)
        m = (m - 1) // 2
    while chain:
        m = chain.pop()
        _memo[m] = _memo[(m - 1) // 2]
    return _memo[n]


def q_rec(n: int, _memo: dict = {0: 1}) -> int:
    """q(0) = 1, q(2n) = 1 for n >= 1, q(2n+1) = q(n) + 1."""
    if n in _memo:
        return _memo[n]
    chain = []
    m = n
    while m not in _memo:
        if m % 2 == 0:
            _memo[m] = 1
            break
        chain.append(m)
        m = (m - 1) // 2
    while chain:
        m = chain.pop()
        _memo[m] = _memo[(m - 1) // 2] + 1
    return _memo[n]


def collatz_step(n: int) -> int:
    return n // 2 if n % 2 == 0 else 3 * n + 1


def terras_step(n: int) -> int:
    return n // 2 if n % 2 == 0 else (3 * n + 1) // 2


def g_step(n: int, a: int, b: int) -> int:
    return n // 2 if n % 2 == 0 else (a * n + b) // 2


def orbit(step, start: int, limit: int, stop_at: int) -> list[int]:
    """Iterate step from start, at most limit steps, halting at stop_at."""
    seq = [start]
    x = start
    for _ in range(limit):
        if x == stop_at:
            break
        x = step(x)
        seq.append(x)
    return seq


def apt_step_by_iteration(n: int) -> int:
    """One parity-run of the half-step map, found by literal iteration.

    Even n: halve until odd.  Odd n: apply the odd half-step until even.
    """
    if n % 2 == 0:
        while n % 2 == 0:
            n //= 2
        return n
    while n % 2 == 1:
        n = (3 * n + 1) // 2
    return n


def apt_stopping_by_iteration(n: int, budget: int) -> int:
    """Accelerated steps from n to 1, one literal parity run at a time;
    -1 when more than budget steps are needed."""
    steps = 0
    while n != 1:
        if steps >= budget:
            return -1
        n = apt_step_by_iteration(n)
        steps += 1
    return steps


def emapt_stopping_by_iteration(u: int, budget: int) -> int:
    """Even-only steps from even u to 2; one step is the halving run to the
    odd part followed by the odd run back to an even value.  -1 when more
    than budget steps are needed."""
    steps = 0
    while u != 2:
        if steps >= budget:
            return -1
        u = apt_step_by_iteration(apt_step_by_iteration(u))
        steps += 1
    return steps


def covering_chain_by_iteration(
    n: int, budget: int, steps=(collatz_step, terras_step, apt_step_by_iteration)
) -> tuple[int, int, int, int]:
    """Element counts of the plain, half-step and accelerated orbits from n
    down to 1, each walked literally and kept whole, plus containment.

    A length is -1 for an orbit that needs more than budget steps.  The last
    entry is 1 when the accelerated orbit is an ordered subsequence of the
    half-step orbit and that one of the plain orbit, 0 when not, and -1 when
    any orbit is unfinished.  `steps` are the three maps, in that order.
    """
    c, t, a = (orbit(step, n, budget, 1) for step in steps)
    lengths = tuple(len(seq) if seq[-1] == 1 else -1 for seq in (c, t, a))
    if -1 in lengths:
        return (*lengths, -1)
    return (*lengths, int(is_subsequence(a, t) and is_subsequence(t, c)))


def orbit_lengths_by_iteration(n: int, budget: int) -> tuple[int, int, int]:
    """The three lengths of `covering_chain_by_iteration`."""
    return covering_chain_by_iteration(n, budget)[:3]


def block_table_by_iteration(k: int) -> list[tuple[int, int, int, int, int]]:
    """Per k-bit residue b, from k literal half-steps: (3^c, T^k(b), the
    parity changes among the k parities after the first, the last parity,
    c), where c counts the odd values among b, ..., T^(k-1)(b)."""
    table = []
    for b in range(2**k):
        parities = []
        x = b
        for _ in range(k):
            parities.append(x % 2)
            x = terras_step(x)
        changes = sum(p != q for p, q in zip(parities, parities[1:]))
        c = sum(parities)
        table.append((3**c, x, changes, parities[-1], c))
    return table


def gapt_step_by_iteration(n: int, a: int, b: int) -> tuple[int, int]:
    """(landing value, run length) for one parity run of the generalized map."""
    runs = 0
    parity = n % 2
    while n % 2 == parity:
        n = g_step(n, a, b)
        runs += 1
    return n, runs


def is_subsequence(inner: list[int], outer: list[int]) -> bool:
    """Whether inner is an ordered subsequence of outer: each `in` consumes
    outer up to and including its match."""
    it = iter(outer)
    return all(x in it for x in inner)


def odd_elements(seq: list[int]) -> list[int]:
    return [x for x in seq if x % 2 == 1]


def even_elements(seq: list[int]) -> list[int]:
    return [x for x in seq if x % 2 == 0]


def w_candidates_by_sieve(count: int) -> list[int]:
    """First count odd naturals not divisible by three, in order."""
    out = []
    n = 1
    while len(out) < count:
        if n % 2 == 1 and n % 3 != 0:
            out.append(n)
        n += 1
    return out


def affine_apply(z, alpha: int, beta: int) -> Fraction:
    slope = Fraction(2 ** (alpha + beta), 3**alpha)
    intercept = -Fraction(2**beta * (3**alpha - 2**alpha), 3**alpha)
    return slope * z + intercept


def compose_by_sequential_apply(z0, steps) -> Fraction:
    z = Fraction(z0)
    for alpha, beta in steps:
        z = affine_apply(z, alpha, beta)
    return z


# --- checker spans: (checked, violations, exhausted) by the literal loops -----


def u_residues_span(lo: int, hi: int, budget: int, pq=_pure.emapt_step_pq):
    violations = []
    exhausted = []
    seeds = range(lo + (lo & 1), hi + 1, 2)
    for u in seeds:
        x = u
        for step in range(1, budget + 1):
            if x == 2:
                break
            x = pq(x)
            if x % 6 != 2:
                violations.append((u, f"element {x} is not 2 mod 6"))
                break
            if step >= 2 and x % 18 not in (2, 8):
                violations.append((u, f"element {x} is not 2 or 8 mod 18"))
                break
        else:
            if x != 2:
                exhausted.append(u)
    return len(seeds), violations, exhausted


def u_residues_odd_span(lo: int, hi: int, budget: int, pq=_pure.emapt_step_pq):
    violations = []
    exhausted = []
    seeds = range(lo | 1, hi + 1, 2)
    for seed in seeds:
        x = _pure.emapt_step_ruler(seed)
        for _ in range(budget):
            if x == 2:
                break
            x = pq(x)
            if x % 18 not in (2, 8):
                violations.append((seed, f"element {x} is not 2 or 8 mod 18"))
                break
        else:
            if x != 2:
                exhausted.append(seed)
    return len(seeds), violations, exhausted


def parity_runs_span(lo: int, hi: int):
    violations = []
    for n in range(lo, hi + 1):
        if n & 1 == 0:
            x = n
            run = 0
            while x & 1 == 0:
                x >>= 1
                run += 1
            expected = _pure.ruler(n >> 1)
        else:
            x = n
            run = 0
            while x & 1:
                x = (3 * x + 1) >> 1
                run += 1
            expected = _pure.ruler((n + 1) >> 1)
        if run != expected:
            violations.append((n, f"run length {run}, expected {expected}"))
        elif x != _pure.apt_step(n):
            violations.append((n, f"run lands on {x}, not the accelerated step"))
    return len(range(lo, hi + 1)), violations, []


def p3n_span(lo: int, hi: int):
    violations = [
        (n, "p(3n) is 1 mod 3") for n in range(lo, hi + 1) if p_rec(3 * n) % 3 == 1
    ]
    return len(range(lo, hi + 1)), violations, []


def x_residues_span(lo: int, hi: int):
    # x_step(x) = (emapt(6x + 2) - 2) / 6; an even-only step is the halving
    # run to the odd part, then the odd run back to an even value.
    violations = []
    for x in range(lo, hi + 1):
        image = apt_step_by_iteration(apt_step_by_iteration(6 * x + 2))
        if (image - 2) // 6 % 3 == 2:
            violations.append((x, "image is 2 mod 3"))
    return len(range(lo, hi + 1)), violations, []


def linear_fixed_point_span(
    lo: int, hi: int, pq=lambda u: apt_step_by_iteration(apt_step_by_iteration(u))
):
    # pq is the even-only step, by default the halving run to the odd part and
    # the odd run after it.  The inverse affine step of u's (alpha, beta) maps
    # the image back onto u exactly when the linear relation holds.
    violations = []
    seeds = range(lo + (2 - lo) % 6, hi + 1, 6)
    for u in seeds:
        beta = v2_by_division(u)
        alpha = v2_by_division(u // 2**beta + 1)
        if affine_apply(pq(u), alpha, beta) != u:
            violations.append((u, "linear relation failed"))
    return len(seeds), violations, []


def dual_forms_span(lo: int, hi: int):
    violations = []
    evens = range(max(lo + (lo & 1), 2), hi + 1, 2)
    for n in range(lo, hi + 1):
        if n in evens and _pure.emapt_step_pq(n) != _pure.emapt_step_ruler(n):
            violations.append((n, "pq and ruler forms disagree"))
        even, odd_succ = mapt_even_step(n)
        if odd_succ != _pure.apt_step(even):
            violations.append((n, "even index map disagrees with accelerated step"))
        odd, even_succ = mapt_odd_step(n)
        if even_succ != _pure.apt_step(odd):
            violations.append((n, "odd index map disagrees with accelerated step"))
    return len(evens) + len(range(lo, hi + 1)), violations, []


def covering_span(lo: int, hi: int, budget: int):
    violations = []
    exhausted = []
    for n in range(lo, hi + 1):
        c_len, t_len, a_len, ok = _pure.covering_chain(n, budget)
        if ok == 0:
            violations.append((n, "orbit containment failed"))
        elif ok < 0:
            exhausted.append(n)
        elif not (a_len <= t_len <= c_len):
            violations.append(
                (n, f"length chain broken: {a_len}, {t_len}, {c_len}")
            )
    return len(range(lo, hi + 1)), violations, exhausted


def conjecture_apt_span(lo: int, hi: int, budget: int):
    exhausted = [
        n for n in range(lo, hi + 1) if _pure.apt_stopping(n, budget) < 0
    ]
    return len(range(lo, hi + 1)), [], exhausted


def conjecture_emapt_span(lo: int, hi: int, budget: int):
    exhausted = [
        n
        for n in range(lo, hi + 1)
        if _pure.emapt_stopping(6 * n + 2, budget) < 0
    ]
    return len(range(lo, hi + 1)), [], exhausted


# --- JSON: the dict form that json.dumps(indent=2) turns into emit's bytes ----


def _s(value):
    return None if value is None else str(value)


def to_jsonable(result) -> dict:
    """Fixed-field-order dict form of a result, integers as decimal strings."""
    name = type(result).__name__
    if name == "Trace":
        return {
            "kind": result.kind,
            "start": _s(result.start),
            "elements": [str(x) for x in result.elements],
            "outcome": result.outcome.value,
            "stopping_time": _s(result.stopping_time),
        }
    if name == "TheoremReport":
        return {
            "theorem_id": result.theorem_id,
            "lo": _s(result.lo),
            "hi": _s(result.hi),
            "checked": _s(result.checked),
            "violation_count": _s(result.violation_count),
            "violations": [
                {"input": _s(v.input), "detail": v.detail} for v in result.violations
            ],
            "budget_exhausted": [str(n) for n in result.budget_exhausted],
            "observational": result.observational,
        }
    if name == "StatsTable":
        return {
            "lo": _s(result.lo),
            "hi": _s(result.hi),
            "budget": _s(result.budget),
            "rows": [
                {
                    "n": _s(r.n),
                    "c_len": _s(r.c_len),
                    "t_len": _s(r.t_len),
                    "a_len": _s(r.a_len),
                    "exhausted": r.exhausted,
                }
                for r in result.rows
            ],
        }
    if name == "WZTree":
        return {
            "root": {"w": _s(result.root.w), "z": _s(result.root.z)},
            "candidate_bound": _s(result.candidate_bound),
            "depth_bound": _s(result.depth_bound),
            "nodes": [
                {
                    "w": _s(node.w),
                    "z": _s(node.z),
                    "depth": _s(result.depths[node.w]),
                    "children": [str(c) for c in result.children.get(node.w, ())],
                }
                for node in result.nodes
            ],
            "orphans": [
                {"w": _s(o.w), "parent": _s(o.parent)} for o in result.orphans
            ],
        }
    raise TypeError(f"no JSON form for {name}")


# --- text and DOT: the lines that emit's pieces join to, built as lists -------


def text_lines(result) -> list[str]:
    """The lines of a result's text form, without their newlines."""
    name = type(result).__name__
    if name == "Trace":
        lines = [
            f"kind {result.kind} from {result.start}: {result.outcome.value}",
            "elements: " + " ".join(str(x) for x in result.elements),
        ]
        if result.stopping_time is not None:
            lines.append(f"stopping time: {result.stopping_time}")
        return lines
    if name == "TheoremReport":
        status = "OK" if result.violation_count == 0 else "VIOLATIONS"
        lines = [
            f"{result.theorem_id} over [{result.lo}, {result.hi}]: {status}",
            f"checked {result.checked}, violations {result.violation_count}, "
            f"budget-exhausted {len(result.budget_exhausted)}",
        ]
        if result.observational:
            lines.append("observational: findings are reported, not asserted")
        for v in result.violations:
            lines.append(f"  {v.input}: {v.detail}")
        if result.budget_exhausted:
            lines.append(
                "  exhausted: " + " ".join(str(n) for n in result.budget_exhausted)
            )
        return lines
    if name == "StatsTable":
        lines = [f"orbit lengths over [{result.lo}, {result.hi}], budget {result.budget}"]
        for r in result.rows:
            flag = " (budget exhausted)" if r.exhausted else ""
            lines.append(f"  {r.n}: {r.c_len} {r.t_len} {r.a_len}{flag}")
        return lines
    if name == "WZTree":
        lines = [
            f"reverse tree over first {result.candidate_bound} candidates, "
            f"depth bound {result.depth_bound}"
        ]
        for node in result.nodes:
            depth = result.depths[node.w]
            kids = result.children.get(node.w, ())
            kid_text = " ".join(str(c) for c in kids) if kids else "-"
            lines.append(f"  {'  ' * depth}{node.w} (z={node.z}) children: {kid_text}")
        if result.orphans:
            lines.append(
                "orphans: "
                + " ".join(f"{o.w}->{o.parent}" for o in result.orphans)
            )
        return lines
    raise TypeError(f"no text form for {name}")


def dot_lines(tree) -> list[str]:
    """The lines of a tree's DOT form, without their newlines."""
    lines = ["digraph reverse_tree {"]
    for node in tree.nodes:
        lines.append(f'  {node.w} [label="{node.w} ({node.z})"];')
    for node in tree.nodes:
        parent = tree.parents[node.w]
        if parent == node.w:
            lines.append(f"  {node.w} -> {parent} [style=dashed, color=gray];")
        else:
            lines.append(f"  {node.w} -> {parent};")
    for orphan in tree.orphans:
        lines.append(
            f'  {orphan.w} [label="{orphan.w}", style=dotted, '
            f'comment="parent {orphan.parent} outside tree"];'
        )
    lines.append("}")
    return lines


if __name__ == "__main__":
    # Scratch area: recompute the frozen constants used in the test suite.
    for m in (9, 11, 23):
        # nested split of m = (2i+1)2^j - 1, then i = (2k+1)2^l - 1
        j = v2_by_division(m + 1)
        i = ((m + 1) // 2**j - 1) // 2
        l = v2_by_division(i + 1)
        k = ((i + 1) // 2**l - 1) // 2
        print(f"three_tuple({m}) = (j={j}, k={k}, l={l});"
              f" oracle p(p(m))={p_rec(p_rec(m))} q(p(m))={q_rec(p_rec(m))}")
    sys.stdout.flush()
