"""Stopping counters and orbit lengths against literal loops.

The stopping counters and `orbit_lengths` jump 12 half-steps per table
lookup, so every count is compared with the literal loops in `oracles`,
which walk one parity run at a time.  They have no compiled twin: `kernels`
binds them from `_pure` on both backends.  The ``impl`` fixture
(tests/conftest.py) runs each backend's reach span from the same start at
the same budgets (for `emapt`, the starts 6n + 2), so the compiled reach
walks meet the literal loops at these inputs too.  The inputs cover the
table edges (2^12 +- 1 and the orbits that cross it mid-run), long runs
spanning many blocks, the 2**63 / 2**64 edges, and budgets at r - 1, r,
r + 1.
"""

import subprocess
import sys

from hypothesis import given, strategies as st

import oracles
from collatz_lab import _pure, kernels
from conftest import BOUNDARY, RANDOMS

BIG_BUDGET = 10**6

EDGES = sorted(
    {
        base + d
        for k in (12, 13, 24, 36, 63, 64, 68, 120)
        for base in (2**k, 3 * 2**k)
        for d in (-2, -1, 0, 1, 2)
    }
    | {2**k for k in range(200)}          # one even run over many blocks
    | {2**k - 1 for k in range(1, 200)}   # one odd run over many blocks
)


def _budget_edges(r):
    return (0, 1, r - 1, r, r + 1)


def _reach(start, steps):
    """A reach span's result for the one start whose walk took `steps`."""
    return (1, [], [start] if steps < 0 else [])


def _assert_apt(impl, n):
    r = oracles.apt_stopping_by_iteration(n, BIG_BUDGET)
    assert r >= 0
    for budget in _budget_edges(r):
        steps = oracles.apt_stopping_by_iteration(n, budget)
        assert _pure.apt_stopping(n, budget) == steps, f"apt_stopping({n}, {budget})"
        assert impl.span_conjecture_apt(n, n, budget) == _reach(n, steps), (n, budget)


def _assert_emapt(impl, u):
    r = oracles.emapt_stopping_by_iteration(u, BIG_BUDGET)
    assert r >= 0
    if u != 2:
        # Even, odd, ..., even parity runs: one even-only step per two runs.
        assert r == (oracles.apt_stopping_by_iteration(u, BIG_BUDGET) + 1) // 2
    for budget in _budget_edges(r):
        steps = oracles.emapt_stopping_by_iteration(u, budget)
        assert _pure.emapt_stopping(u, budget) == steps, f"emapt_stopping({u}, {budget})"
        if u % 6 == 2:
            n = (u - 2) // 6
            assert impl.span_conjecture_emapt(n, n, budget) == _reach(n, steps), (n, budget)


def test_apt_stopping_matches_literal_loop(impl):
    for n in range(1, 20_001):
        _assert_apt(impl, n)
    for n in EDGES:
        _assert_apt(impl, n)


def test_emapt_stopping_matches_literal_loop(impl):
    for u in range(2, 20_001, 2):
        _assert_emapt(impl, u)
    for u in EDGES:
        if u % 2 == 0:
            _assert_emapt(impl, u)


def test_small_stopping_table_matches_literal_loop():
    _, small = _pure._stop_tables()
    assert len(small) == 2**12
    for m in range(1, 2**12):
        assert small[m][0] == oracles.apt_stopping_by_iteration(m, BIG_BUDGET), m


def _assert_lengths(n, every_orbit=True):
    full = oracles.orbit_lengths_by_iteration(n, BIG_BUDGET)
    assert min(full) > 0
    if every_orbit:
        # Each orbit's step count - 1, itself and + 1 (its length is steps + 1).
        budgets = {-1, 0, 1, BIG_BUDGET} | {
            length + d for length in full for d in (-2, -1, 0)
        }
    else:
        # Big n has long literal orbits: only the budget one step short of the
        # accelerated count, where the walk can stop inside the block loop.
        budgets = {BIG_BUDGET, full[2] - 2}
    for budget in sorted(budgets):
        assert _pure.orbit_lengths(n, budget) == oracles.orbit_lengths_by_iteration(
            n, budget
        ), f"orbit_lengths({n}, {budget})"


def test_orbit_lengths_match_literal_orbits():
    assert kernels.orbit_lengths is _pure.orbit_lengths
    for n in range(1, 5001):
        _assert_lengths(n)
    for n in EDGES:
        _assert_lengths(n, every_orbit=False)
    # Across 2**63 / 2**64, and at a budget that stops most walks early.
    for n in BOUNDARY + RANDOMS:
        for budget in (BIG_BUDGET, 3):
            assert _pure.orbit_lengths(n, budget) == oracles.orbit_lengths_by_iteration(
                n, budget
            ), f"orbit_lengths({n}, {budget})"


@given(st.integers(min_value=1, max_value=2**300))
def test_orbit_lengths_match_literal_orbits_on_bigints(n):
    _assert_lengths(n, every_orbit=False)


def test_orbit_lengths_with_a_memo_match_without():
    # One memo across consecutive starts, as a reach span keeps it: each
    # walk ends on a tail an earlier one stored, at budgets one step short
    # of each orbit's count and at the count.
    tails = {}
    for n in [*range(4000, 7000), *range(2**68, 2**68 + 300)]:
        full = _pure.orbit_lengths(n, BIG_BUDGET)
        for budget in (BIG_BUDGET, *(length + d for length in full for d in (-2, -1))):
            assert _pure.orbit_lengths(n, budget, tails) == _pure.orbit_lengths(
                n, budget
            ), (n, budget)
    assert tails


def test_stopping_targets_cost_nothing(impl):
    # Already at the target: zero steps, even when the budget is not positive;
    # and the orbit-walk spans, on each backend, find nothing to exhaust.
    for budget in (-1, 0, 1):
        assert _pure.apt_stopping(1, budget) == 0
        assert _pure.emapt_stopping(2, budget) == 0
        assert impl.span_conjecture_apt(1, 1, budget) == (1, [], [])
        assert impl.span_conjecture_emapt(0, 0, budget) == (1, [], [])   # 6n + 2 = 2
        assert impl.span_covering(1, 1, budget) == (1, [], [])


@given(st.integers(min_value=1, max_value=2**300))
def test_apt_stopping_matches_literal_loop_on_bigints(impl, n):
    _assert_apt(impl, n)


@given(st.integers(min_value=1, max_value=2**299).map(lambda k: 2 * k))
def test_emapt_stopping_matches_literal_loop_on_bigints(impl, u):
    _assert_emapt(impl, u)


def test_stopping_tables_are_not_built_at_import():
    code = (
        "import collatz_lab.cli\n"
        "from collatz_lab import _pure\n"
        "print(_pure._STOP_TABLES is None)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"
