"""Compiled backend must agree with the pure-Python reference everywhere.

The compiled kernels take uint64 fast paths and fall back per call for
anything larger, so the values around 2**63 / 2**64 are the interesting
boundary; the random sweep crosses it on purpose.  The ``fast`` fixture
(tests/conftest.py) builds the compiled module from its committed C source,
and ``impl`` runs a test on each backend in turn.  The stopping counters are
checked on both backends against literal loops in tests/test_stopping.py.
"""

import inspect
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from collatz_lab import _pure, kernels

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
def test_selected_backend_matches_oracles(impl, n):
    assert impl.ruler(n) == oracles.ruler_rec(n)
    assert impl.interleave_p(n) == oracles.p_rec(n)
    assert impl.shifted_ruler_q(n) == oracles.q_rec(n)
    assert impl.apt_step(n) == oracles.apt_step_by_iteration(n)


@given(st.integers(min_value=1, max_value=10**40))
def test_fast_handles_arbitrary_magnitude(fast, n):
    assert fast.apt_step(n) == _pure.apt_step(n)
    assert fast.odd_part(n) == _pure.odd_part(n)


def test_every_pure_kernel_has_a_compiled_twin(fast):
    # `kernels` binds each name from the compiled module when it imports, so
    # a missing twin would break `import collatz_lab` on compiled installs.
    names = {
        name
        for name, value in vars(_pure).items()
        if inspect.isfunction(value) and not name.startswith("_")
    }
    assert {"apt_stopping", "covering_chain", "scan_p3n"} <= names
    assert sorted(n for n in names - {"orbit_lengths"} if not hasattr(fast, n)) == []
    assert sorted(n for n in names if not hasattr(kernels, n)) == []
