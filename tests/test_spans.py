"""Range kernels on both backends, against the literal checker loops.

Each `scan_*` and `span_*` kernel runs a whole `verify` span in one call
and returns (checked, violations, exhausted); `oracles` keeps the loops
they replaced, one standalone `_pure` kernel call per step or per start,
and for the two scans and `linear-fixed-point` the literal recursions and
iterations.  The windows cover the checkers' small ranges; ±64 around
2**41, SAFE3, 2**62, 2**63 and 2**64, where a compiled span hands `_pure`
an element that does not fit in uint64 (2**41 - 1 in `dual-forms`) or
everything past its limit; and bigint seeds past 2**68.  The budgeted
residue spans and the orbit-walk spans, whose `_pure` kernels share
finished tails between the seeds or starts of a span, run whole windows at
budgets 1, 2, 3 and at sampled seeds' or starts' exact step counts - 1,
themselves and + 1, so that some exhaust right after a walk ends on a
shared tail; and again with the memo's cap at 2, so that it is cleared over
and over.  The residue spans also run one seed at a time at budgets 1, 2, 3
and at each seed's exact step count - 1, itself and + 1; the orbit-walk
spans also run at budgets past the long long range.
No input in a checker's domain reaches a violation, so the violation details
are compared as source literals across the two backends and the loops.
"""

import ast
import inspect
import pathlib
import re
import sys

import pytest

import oracles
from collatz_lab import _pure, kernels, verify
from conftest import BIG_BUDGETS, FAST_SOURCE, patched_pure

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


def _orbit_budgets(starts, steps, samples=2):
    """1, 2, 3, a big budget, and the step count - 1, itself and + 1 of
    `samples` of the range `starts`, spread over it."""
    stride = max(1, (len(starts) - 1) // samples)
    counts = {steps(n) for n in starts[stride // 2::stride]}
    return sorted({1, 2, 3, BIG_BUDGET} | {c + d for c in counts for d in (-1, 0, 1)})


# name, oracle, first input, seed parity, steps per seed
BUDGETED = [
    ("span_u_residues", oracles.u_residues_span, 2, 0, _u_steps),
    ("span_u_residues_odd", oracles.u_residues_odd_span, 1, 1, _odd_steps),
]
UNBUDGETED = [
    ("scan_p3n", oracles.p3n_span, 0),
    ("scan_x_residues", oracles.x_residues_span, 0),
    ("span_parity_runs", oracles.parity_runs_span, 1),
    ("span_dual_forms", oracles.dual_forms_span, 0),
    ("span_linear_fixed_point", oracles.linear_fixed_point_span, 2),
]


@pytest.mark.parametrize(
    "name,oracle,first,parity,steps", BUDGETED, ids=[c[0] for c in BUDGETED]
)
def test_budgeted_span_matches_literal_loop(impl, name, oracle, first, parity, steps):
    span = getattr(impl, name)
    for lo, hi in _windows(first):
        seeds = range(lo + ((lo & 1) != parity), hi + 1, 2)
        for budget in _orbit_budgets(seeds, steps, 4):
            assert span(lo, hi, budget) == oracle(lo, hi, budget), (lo, hi, budget)
        for seed in seeds:
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


#: Windows of the two kernels that read 3^k, and whether `_pure` reads the
#: powers from its module table there: below 2^127 it does, past it it
#: builds a list per call.
POWER_WINDOWS = [
    (SAFE3 + 1, SAFE3 + 1, True),   # a one-element call, as `_fast` hands `_pure`
    (2**127 - 1, 2**127 - 1, True),
    (2**127 - 64, 2**127 - 1, True),
    (2**127 - 64, 2**127 + 64, False),
    (2**127, 2**127, False),
]


@pytest.mark.parametrize("name,oracle", [
    ("scan_x_residues", oracles.x_residues_span),
    ("span_dual_forms", oracles.dual_forms_span),
], ids=["scan_x_residues", "span_dual_forms"])
def test_powers_come_from_the_module_table_below_2_127(name, oracle, monkeypatch):
    # Counted, not timed: a call that reads the table builds no power list.
    reads = []

    class CountedPowers(tuple):
        def __getitem__(self, k):
            reads.append(k)
            return tuple.__getitem__(self, k)

    monkeypatch.setattr(_pure, "_POW3", CountedPowers(_pure._POW3))
    for lo, hi, from_table in POWER_WINDOWS:
        reads.clear()
        assert getattr(_pure, name)(lo, hi) == oracle(lo, hi), (lo, hi)
        assert bool(reads) == from_table, (lo, hi)


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


@pytest.mark.parametrize("name,oracle,first,windows,steps", ORBIT, ids=[c[0] for c in ORBIT])
def test_orbit_span_matches_literal_loop(impl, name, oracle, first, windows, steps):
    # A budget past long long hands the whole compiled call to `_pure`.
    span = getattr(impl, name)
    for lo, hi in windows:
        for budget in [*_orbit_budgets(range(lo, hi + 1), steps, 4), *BIG_BUDGETS]:
            assert span(lo, hi, budget) == oracle(lo, hi, budget), (lo, hi, budget)


#: The spans whose `_pure` kernels share finished tails: name, oracle, first
#: input, the stride between inputs, the step count of an input
MEMO = [(c[0], c[1], c[2], 1, c[4]) for c in ORBIT] + [
    (c[0], c[1], c[2], 2, c[4]) for c in BUDGETED
]


@pytest.mark.parametrize("name,oracle,first,stride,steps", MEMO, ids=[c[0] for c in MEMO])
def test_orbit_span_survives_memo_clears(impl, monkeypatch, name, oracle, first, stride, steps):
    # A compiled span hands its bigint starts to `_pure`, which reads the cap
    # at each store.
    monkeypatch.setattr(_pure, "_TAILS_CAP", 2)
    span = getattr(impl, name)
    for lo, hi in [(first, first + 300), (2**68, 2**68 + 64)]:
        starts = range(lo + (first - lo) % stride, hi + 1, stride)
        for budget in _orbit_budgets(starts, steps):
            assert span(lo, hi, budget) == oracle(lo, hi, budget), (lo, hi, budget)


class _CountedList(list):
    """A list that counts the items read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def _block_lookups(module, monkeypatch, run):
    """Block-table lookups of the reach walks during run()."""
    blocks, small = module._stop_tables()
    counted = _CountedList(blocks)
    monkeypatch.setattr(module, "_STOP_TABLES", (counted, small))
    run()
    return counted.reads


def _plain_steps(module, monkeypatch, run):
    """Plain-map steps of the lock-step walks during run()."""
    calls = 0
    step = module._c_step

    def counted(n):
        nonlocal calls
        calls += 1
        return step(n)

    monkeypatch.setattr(module, "_c_step", counted)
    run()
    return calls


#: The line of `_residue_walks` that counts a pq step.
_STEP_LINE = "steps += 1"


def _pq_steps(module, monkeypatch, run):
    """pq steps of the residue walks during run(): the line events of their
    step-counting line, traced in this thread only."""
    lines, first = inspect.getsourcelines(_pure._residue_walks)
    [offset] = [i for i, line in enumerate(lines) if line.strip() == _STEP_LINE]
    code = module._residue_walks.__code__
    steps = 0

    def on_line(frame, event, arg):
        nonlocal steps
        if event == "line" and frame.f_lineno == first + offset:
            steps += 1
        return on_line

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is code else None)
    try:
        run()
    finally:
        sys.settrace(old)
    return steps


#: Per tail memo: how its walks' work is counted, the span and window, the
#: count at budget 100,000 when the memo was last measured, and the text in
#: `_pure` that stops its lookups.  Without the memo each count is 2.8 to 6x
#: as large: 106,199, 324,797 and 280,897.
MEMO_WORK = [
    pytest.param(_block_lookups, "span_conjecture_apt", 8_520_000, 37_466,
                 "tail = tails.get(x)", "tail = None", id="reach"),
    pytest.param(_plain_steps, "span_covering", 8_502_000, 54_242,
                 "tail = tails.get(a)", "tail = None", id="covering"),
    pytest.param(_pq_steps, "span_u_residues", 8_520_000, 52_900,
                 "if x in tails:", "if False:", id="residue"),
]


@pytest.mark.parametrize("count,name,hi,work,old,new", MEMO_WORK)
def test_tail_memo_cuts_span_work(monkeypatch, count, name, hi, work, old, new):
    # The memos are exact, so only the work shows whether they work: a span
    # stays within 1.2x its measured count, and a copy of `_pure` whose walks
    # never look up a tail does not.
    def work_of(module):
        span = getattr(module, name)
        return count(module, monkeypatch, lambda: span(8_500_000, hi, 100_000))

    bound = work * 6 // 5
    assert work_of(_pure) <= bound
    assert work_of(patched_pure(old, new)) > bound


@pytest.mark.parametrize(
    "name,first,budget",
    [(c[0], c[2], (5,)) for c in BUDGETED + ORBIT] + [(c[0], c[2], ()) for c in UNBUDGETED],
    ids=[c[0] for c in BUDGETED + ORBIT + UNBUDGETED],
)
def test_empty_span_checks_nothing(impl, name, first, budget):
    # Rounding lo = 2**64 - 1 up to a span's first input must not wrap.
    windows = [(lo, lo - 1) for lo in (first, 10, 2**41, 2**64 + 1)] + [(2**64 - 1, 5)]
    for lo, hi in windows:
        assert getattr(impl, name)(lo, hi, *budget) == (0, [], []), (lo, hi)


def _all(lo, hi):
    return len(range(lo, hi + 1))


def _evens(lo, hi):
    return len(range(max(lo + (lo & 1), 2), hi + 1, 2))


def _odds(lo, hi):
    return len(range(lo | 1, hi + 1, 2))


def _two_mod_six(lo, hi):
    return len(range(lo + (2 - lo) % 6, hi + 1, 6))


# name: first input, budget arguments, inputs over [lo, hi]
CONTRACT = {
    "scan_p3n": (0, (), _all),
    "scan_x_residues": (0, (), _all),
    "scan_emapt_forms": (2, (), _evens),
    "span_u_residues": (2, (5,), _evens),
    "span_u_residues_odd": (1, (5,), _odds),
    "span_parity_runs": (1, (), _all),
    "span_dual_forms": (0, (), lambda lo, hi: _all(lo, hi) + _evens(lo, hi)),
    "span_linear_fixed_point": (2, (), _two_mod_six),
    "span_covering": (1, (5,), _all),
    "span_conjecture_apt": (1, (5,), _all),
    "span_conjecture_emapt": (0, (5,), _all),
}


def test_range_kernels_share_one_contract(impl):
    # Each returns (checked, violations, exhausted), checked counting its
    # inputs, in the uint64 range, across 2**64 and past it.  A kernel with
    # no compiled twin runs pure on both backends.
    assert CONTRACT.keys() == {n for n in vars(_pure) if n.startswith(("scan_", "span_"))}
    for name, (first, budget, inputs) in CONTRACT.items():
        kernel = getattr(impl, name, getattr(_pure, name))
        for lo, hi in [(first, first + 40), (first + 1, first + 40), (first + 9, first + 8),
                       (2**64 - 20, 2**64 + 20), (2**68 + 1, 2**68 + 40)]:
            got = kernel(lo, hi, *budget)
            assert type(got) is tuple and len(got) == 3, (name, lo, hi)
            checked, violations, exhausted = got
            assert checked == inputs(lo, hi), (name, lo, hi)
            assert type(violations) is list and type(exhausted) is list, (name, lo, hi)


BELOW_DOMAIN = [
    ("scan_p3n", (-1, 10)),                # p of a negative 3n never ends
    ("scan_x_residues", (-1, 10)),
    ("span_u_residues", (0, 10, 5)),       # u = 0: p((0 - 2) / 2) halves -1 forever
    ("span_u_residues_odd", (-1, 10, 5)),
    ("span_parity_runs", (0, 10)),         # n = 0: the halving run never ends
    ("span_dual_forms", (-1, 10)),         # no index below 0
    ("span_linear_fixed_point", (-4, 10)),  # u = -4: p((-4 - 2) / 2) halves -1 forever
    ("span_covering", (0, 10, 5)),         # orbits start at 1
    ("span_conjecture_apt", (0, 10, 5)),
    ("span_conjecture_emapt", (-1, 10, 5)),  # 6n + 2 starts at 2
]


@pytest.mark.parametrize("name,args", BELOW_DOMAIN, ids=[c[0] for c in BELOW_DOMAIN])
def test_span_below_its_domain_raises(impl, name, args):
    with pytest.raises(ValueError):
        getattr(impl, name)(*args)


def test_checker_spans_stay_in_verify(monkeypatch):
    # perfbench names a traced span after the module of the CHECKERS entry.
    # Each span is one call of the kernel it names, one kernel per checker,
    # looked up in `kernels` at call time: the stub bound there is what runs,
    # and only a kernel that takes a budget is passed it.
    names = {spec.span.__name__ for spec in verify.CHECKERS.values()}
    assert names == CONTRACT.keys() - {"scan_emapt_forms"}
    for spec in verify.CHECKERS.values():
        assert spec.span.__module__ == "collatz_lab.verify"
        name = spec.span.__name__
        calls, result = [], (1, [], [])
        monkeypatch.setattr(kernels, name, lambda *args: calls.append(args) or result)
        assert spec.span(3, 9, 7) is result, name
        takes_budget = len(inspect.signature(getattr(_pure, name)).parameters) == 3
        assert calls == [(3, 9, 7) if takes_budget else (3, 9)], name


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
        _pure, lambda name: name.startswith(("scan_", "span_")) or name == "_residue_walks"
    )
    oracle = _python_details(oracles, lambda name: name.endswith("_span"))
    assert len(pure) == 12
    assert pure == _c_details() == oracle
