"""Checker span kernels on both backends, against the literal checker loops.

Each `span_*` kernel runs a whole `verify` span in one call; `oracles` keeps
the loops they replaced, one standalone `_pure` kernel call per step or per
start.  The windows cover the checkers' small ranges; ±64 around 2**41,
SAFE3, 2**62, 2**63 and 2**64, where a compiled span hands `_pure` an
element that does not fit in uint64 (2**41 - 1 in `dual-forms`) or
everything past its limit; and bigint seeds past 2**68.  The budgeted
residue spans also run one seed at a time at budgets 1, 2, 3 and at each
seed's exact step count - 1, itself and + 1.  The orbit-walk spans, whose
`_pure` kernels share finished tails between the starts of a span, run
whole windows at budgets 1, 2, 3, at budgets past the long long range and
at sampled starts' exact step counts - 1, themselves and + 1, so that some
starts exhaust right after a walk ends on a shared tail; and again with the
memo's cap at 2, so that it is cleared over and over.
No input in a checker's domain reaches a violation, so the violation details
are compared as source literals across the two backends and the loops.
"""

import ast
import pathlib
import re

import pytest

import oracles
from collatz_lab import _pure, verify
from conftest import BIG_BUDGETS, FAST_SOURCE

BIG_BUDGET = 10**6
SAFE3 = (2**64 - 2) // 3   # the compiled parity-runs span stops here


def _windows(first):
    out = [(first, 3000)]
    for c in (2**41, SAFE3, 2**62, 2**63, 2**64):
        out += [(c - 64, c - 1), (c - 64, c + 64), (c, c + 64)]
    return out + [(2**68, 2**68 + 300)]


def _u_steps(u):
    """pq steps from even seed u to 2."""
    return oracles.emapt_stopping_by_iteration(u, BIG_BUDGET)


def _odd_steps(seed):
    """pq steps to 2 after an odd seed's ruler-form step."""
    return oracles.emapt_stopping_by_iteration(
        oracles.apt_step_by_iteration(seed), BIG_BUDGET
    )


# name, oracle, first input, seed parity, steps per seed
BUDGETED = [
    ("span_u_residues", oracles.u_residues_span, 2, 0, _u_steps),
    ("span_u_residues_odd", oracles.u_residues_odd_span, 1, 1, _odd_steps),
]
UNBUDGETED = [
    ("span_parity_runs", oracles.parity_runs_span, 1),
    ("span_dual_forms", oracles.dual_forms_span, 0),
]


@pytest.mark.parametrize(
    "name,oracle,first,parity,steps", BUDGETED, ids=[c[0] for c in BUDGETED]
)
def test_budgeted_span_matches_literal_loop(impl, name, oracle, first, parity, steps):
    span = getattr(impl, name)
    for lo, hi in _windows(first):
        for budget in (1, 2, 3, BIG_BUDGET):
            assert span(lo, hi, budget) == oracle(lo, hi, budget), (lo, hi, budget)
    for lo, hi in _windows(first):
        for seed in range(lo + ((lo & 1) != parity), hi + 1, 2):
            b = steps(seed)
            for budget in (b - 1, b, b + 1):
                assert span(seed, seed, budget) == oracle(seed, seed, budget), (
                    seed,
                    budget,
                )


@pytest.mark.parametrize("name,oracle,first", UNBUDGETED, ids=[c[0] for c in UNBUDGETED])
def test_span_matches_literal_loop(impl, name, oracle, first):
    span = getattr(impl, name)
    for lo, hi in _windows(first):
        assert span(lo, hi) == oracle(lo, hi), (lo, hi)


EMAPT_LIMIT = (2**64 - 3) // 6   # the compiled span stops where 6n + 2 does not fit


def _covering_steps(n):
    """Plain steps from n to 1: covering exhausts n exactly past them."""
    return _pure.covering_chain(n, BIG_BUDGET)[0] - 1


#: The covering literal loop is the slow one, so its windows are fewer and
#: narrower: compiled, mid-orbit overflows at 2**63 and SAFE3 send single
#: starts to `_pure`, and 2**64 sends the whole window.
COVERING_WINDOWS = [(1, 600)] + [
    (c - 32, c + 32) for c in (2**63, SAFE3, 2**64)
] + [(2**68, 2**68 + 100)]

# name, oracle, first input, windows, the step count that decides whether a
# start exhausts
ORBIT = [
    ("span_covering", oracles.covering_span, 1, COVERING_WINDOWS, _covering_steps),
    (
        "span_conjecture_apt",
        oracles.conjecture_apt_span,
        1,
        _windows(1),
        lambda n: _pure.apt_stopping(n, BIG_BUDGET),
    ),
    (
        "span_conjecture_emapt",
        oracles.conjecture_emapt_span,
        0,
        _windows(0) + [
            (EMAPT_LIMIT - 64, EMAPT_LIMIT - 1),
            (EMAPT_LIMIT - 64, EMAPT_LIMIT + 64),
            (EMAPT_LIMIT, EMAPT_LIMIT + 64),
        ],
        lambda n: _pure.emapt_stopping(6 * n + 2, BIG_BUDGET),
    ),
]


def _orbit_budgets(lo, hi, steps, samples=2):
    """1, 2, 3, a big budget, and the step count - 1, itself and + 1 of
    `samples` starts spread over [lo, hi]."""
    stride = max(1, (hi - lo) // samples)
    counts = {steps(n) for n in range(lo + stride // 2, hi + 1, stride)}
    return sorted({1, 2, 3, BIG_BUDGET} | {c + d for c in counts for d in (-1, 0, 1)})


@pytest.mark.parametrize("name,oracle,first,windows,steps", ORBIT, ids=[c[0] for c in ORBIT])
def test_orbit_span_matches_literal_loop(impl, name, oracle, first, windows, steps):
    # A budget past long long hands the whole compiled call to `_pure`.
    span = getattr(impl, name)
    for lo, hi in windows:
        for budget in [*_orbit_budgets(lo, hi, steps, 4), *BIG_BUDGETS]:
            assert span(lo, hi, budget) == oracle(lo, hi, budget), (lo, hi, budget)


@pytest.mark.parametrize("name,oracle,first,windows,steps", ORBIT, ids=[c[0] for c in ORBIT])
def test_orbit_span_survives_memo_clears(impl, monkeypatch, name, oracle, first, windows, steps):
    # A compiled span hands its bigint starts to `_pure`, which reads the cap
    # at each store.
    monkeypatch.setattr(_pure, "_TAILS_CAP", 2)
    span = getattr(impl, name)
    for lo, hi in [(first, first + 300), (2**68, 2**68 + 64)]:
        for budget in _orbit_budgets(lo, hi, steps):
            assert span(lo, hi, budget) == oracle(lo, hi, budget), (lo, hi, budget)


@pytest.mark.parametrize(
    "name,first,budget",
    [(c[0], c[2], (5,)) for c in BUDGETED + ORBIT] + [(c[0], c[2], ()) for c in UNBUDGETED],
    ids=[c[0] for c in BUDGETED + ORBIT + UNBUDGETED],
)
def test_empty_span_checks_nothing(impl, name, first, budget):
    for lo in (first, 10, 2**41, 2**64 + 1):
        assert getattr(impl, name)(lo, lo - 1, *budget) == (0, [], []), lo


BELOW_DOMAIN = [
    ("span_u_residues", (0, 10, 5)),       # u = 0: p((0 - 2) / 2) halves -1 forever
    ("span_u_residues_odd", (-1, 10, 5)),
    ("span_parity_runs", (0, 10)),         # n = 0: the halving run never ends
    ("span_dual_forms", (-1, 10)),         # no index below 0
    ("span_covering", (0, 10, 5)),         # orbits start at 1
    ("span_conjecture_apt", (0, 10, 5)),
    ("span_conjecture_emapt", (-1, 10, 5)),  # 6n + 2 starts at 2
]


@pytest.mark.parametrize("name,args", BELOW_DOMAIN, ids=[c[0] for c in BELOW_DOMAIN])
def test_span_below_its_domain_raises(impl, name, args):
    with pytest.raises(ValueError):
        getattr(impl, name)(*args)


def test_checker_spans_stay_in_verify():
    # perfbench names a traced span after the module of the CHECKERS entry.
    for spec in verify.CHECKERS.values():
        assert spec.span.__module__ == "collatz_lab.verify"


def _python_details(module, select):
    """The detail literal of every (input, detail) pair built in the module's
    functions that `select` names, with `{}` for each formatted field."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    details = set()
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and select(fn.name)):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Tuple) and len(node.elts) == 2):
                continue
            detail = node.elts[1]
            if isinstance(detail, ast.Constant) and isinstance(detail.value, str):
                details.add(detail.value)
            elif isinstance(detail, ast.JoinedStr):
                details.add("".join(
                    part.value if isinstance(part, ast.Constant) else "{}"
                    for part in detail.values
                ))
    return details


def _c_details():
    """The detail literal of every Python string the C spans build, with `{}`
    for each conversion."""
    literals = re.findall(
        r'PyUnicode_From(?:Format|String)\(\s*"([^"]*)"', FAST_SOURCE.read_text()
    )
    return {re.sub(r"%(?:ll|z)?[dus]", "{}", text) for text in literals}


def test_violation_details_agree():
    pure = _python_details(
        _pure, lambda name: name.startswith("span_") or name == "_residue_walks"
    )
    oracle = _python_details(oracles, lambda name: name.endswith("_span"))
    assert len(pure) == 9
    assert pure == _c_details() == oracle
