"""Compiled backend must agree with the pure-Python reference everywhere.

The compiled kernels take uint64 fast paths and fall back per call for
anything larger, so the values around 2**63 / 2**64 are the interesting
boundary; the random sweep crosses it on purpose.  The ``fast`` fixture
(tests/conftest.py) builds the compiled module from its committed C source.
"""

import random

import pytest
from hypothesis import given, strategies as st

import oracles
from collatz_lab import _pure, kernels
from test_stopping import EDGES

BOUNDARY = [
    1, 2, 3, 63, 64, 65,
    2**31 - 1, 2**32, 2**62 - 1, 2**62, 2**63 - 1, 2**63,
    2**64 - 2, 2**64 - 1, 2**64, 2**64 + 1,
    3**40, 3**50, 2**200 - 1, 2**200,
]

rng = random.Random(20260814)
RANDOMS = [rng.randrange(1, 2**70) for _ in range(400)]

SCALAR_CASES = [
    ("ruler", lambda n: n >= 1),
    ("interleave_p", lambda n: n >= 0),
    ("shifted_ruler_q", lambda n: n >= 0),
    ("odd_part", lambda n: n >= 1),
    ("apt_step", lambda n: n >= 1),
    ("emapt_step_pq", lambda n: n >= 2 and n % 2 == 0),
    ("emapt_step_ruler", lambda n: n >= 1),
    ("omapt_step", lambda n: n >= 1 and n % 2 == 1),
    ("x_step", lambda n: n >= 0),
]


@pytest.mark.parametrize("name,valid", SCALAR_CASES, ids=[c[0] for c in SCALAR_CASES])
def test_scalars_agree(fast, name, valid):
    fast_fn = getattr(fast, name)
    pure_fn = getattr(_pure, name)
    for n in BOUNDARY + RANDOMS:
        if not valid(n):
            continue
        assert fast_fn(n) == pure_fn(n), f"{name}({n})"


def test_covering_chain_agrees(fast):
    for n in list(range(1, 500)) + [2**63 - 1, 2**64 + 5, 3**45]:
        assert fast.covering_chain(n, 100_000) == _pure.covering_chain(n, 100_000)


def test_covering_chain_budget_sentinels_agree(fast):
    for n in (7, 27, 97):
        assert fast.covering_chain(n, 3) == _pure.covering_chain(n, 3)


def test_orbit_lengths_agree_with_compiled_literal_orbits(fast):
    # The block walk against the compiled literal loops, across 2**63 / 2**64.
    for n in BOUNDARY + RANDOMS:
        for budget in (100_000, 3):
            assert fast.covering_chain(n, budget)[:3] == _pure.orbit_lengths(
                n, budget
            ), f"orbit_lengths({n}, {budget})"
    for n in range(1, 400):
        lengths = fast.covering_chain(n, 100_000)[:3]
        for budget in {length + d for length in lengths for d in (-2, -1, 0)}:
            assert fast.covering_chain(n, budget)[:3] == _pure.orbit_lengths(
                n, budget
            ), f"orbit_lengths({n}, {budget})"


def test_stopping_counters_agree(fast):
    for n in list(range(1, 400)) + [2**64 + 1]:
        assert fast.apt_stopping(n, 10_000) == _pure.apt_stopping(n, 10_000)
    # The even table edges, 2**63 / 2**64 +- 2 and the powers of two take the
    # compiled even-engine loop into and out of its bigint fallback.
    evens = [u for u in EDGES if u % 2 == 0 and u < 2**70]
    for u in list(range(2, 400, 2)) + [2**64 + 2] + evens:
        assert fast.emapt_stopping(u, 10_000) == _pure.emapt_stopping(u, 10_000)
    assert fast.apt_stopping(27, 2) == _pure.apt_stopping(27, 2) == -1


@pytest.mark.parametrize(
    "name,lo",
    [
        ("scan_index_reps", 0),
        ("scan_ruler_identities", 0),
        ("scan_p3n", 0),
        ("scan_x_residues", 0),
        ("scan_emapt_forms", 2),
    ],
)
def test_scans_agree(fast, name, lo):
    assert getattr(fast, name)(lo, 3000) == getattr(_pure, name)(lo, 3000)


@given(st.integers(min_value=1, max_value=10**40))
def test_selected_backend_matches_oracles(n):
    assert kernels.ruler(n) == oracles.ruler_rec(n)
    assert kernels.interleave_p(n) == oracles.p_rec(n)
    assert kernels.shifted_ruler_q(n) == oracles.q_rec(n)
    assert kernels.apt_step(n) == oracles.apt_step_by_iteration(n)


@given(st.integers(min_value=1, max_value=10**40))
def test_fast_handles_arbitrary_magnitude(fast, n):
    assert fast.apt_step(n) == _pure.apt_step(n)
    assert fast.odd_part(n) == _pure.odd_part(n)


def test_default_backend_is_compiled_when_built():
    assert kernels.BACKEND in ("compiled", "pure-python")
    assert kernels.ACCELERATED == (kernels.BACKEND == "compiled")
