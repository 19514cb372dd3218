"""Step maps, parity-run collapsing, and orbit tracing."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from collatz_lab import sequences as seq
from collatz_lab.errors import ConfigurationError, DomainError
from collatz_lab.sequences import GParams, Outcome

positives = st.integers(min_value=1, max_value=10**24)
evens = st.integers(min_value=1, max_value=10**24).map(lambda n: 2 * n)
odds = st.integers(min_value=0, max_value=10**24).map(lambda n: 2 * n + 1)
indices = st.integers(min_value=0, max_value=10**24)

PARAM_SETS = [GParams(3, 1), GParams(5, 3), GParams(7, 5)]


def test_basic_steps():
    assert seq.collatz_step(6) == 3
    assert seq.collatz_step(3) == 10
    assert seq.terras_step(3) == 5
    assert seq.terras_step(6) == 3
    assert seq.g_step(3, GParams(7, 5)) == 13
    assert seq.g_step(4, GParams(7, 5)) == 2


def test_gparams_translation_constant():
    assert GParams(3, 1).c == 1
    assert GParams(5, 3).c == 1
    assert GParams(7, 5).c == 1
    assert GParams(3, 3).c == 3
    assert GParams(5, 9).c == 3


@pytest.mark.parametrize(
    "a,b",
    [(4, 1), (3, 2), (1, 1), (2, 2), (5, 1), (7, 3), (3, -1), (3, 0), (3, True)],
)
def test_gparams_rejects_bad_pairs(a, b):
    with pytest.raises(ConfigurationError):
        GParams(a, b)


@pytest.mark.parametrize("params", PARAM_SETS)
def test_parity_flip_matches_iteration(params):
    for g0 in range(1, 3000):
        landing, runs = oracles.gapt_step_by_iteration(g0, params.a, params.b)
        flip = seq.parity_flip(g0, params)
        assert flip.output == landing
        assert flip.run_length == runs
        assert seq.gapt_step(g0, params) == landing


@given(st.integers(min_value=1, max_value=10**18))
def test_parity_flip_flips_parity(g0):
    params = GParams(3, 1)
    flip = seq.parity_flip(g0, params)
    assert flip.output % 2 != g0 % 2
    assert flip.input == g0
    assert flip.run_length >= 1


def test_apt_examples():
    assert [seq.apt_step(n) for n in (7, 26, 13, 20, 5, 8)] == [26, 13, 20, 5, 8, 1]


@given(positives)
def test_apt_matches_parity_run_iteration(n):
    assert seq.apt_step(n) == oracles.apt_step_by_iteration(n)


@given(positives)
def test_apt_is_gapt_with_classic_params(n):
    assert seq.apt_step(n) == seq.gapt_step(n, GParams(3, 1))


@given(indices)
def test_mapt_even_consistency(i):
    value, successor = seq.mapt_even_step(i)
    assert value == 2 * (i + 1)
    assert successor == seq.apt_step(value)


@given(indices)
def test_mapt_odd_consistency(j):
    value, successor = seq.mapt_odd_step(j)
    assert value == 2 * j + 1
    assert successor == seq.apt_step(value)


def test_even_engine_examples():
    assert seq.emapt_step_pq(20) == 8
    assert seq.emapt_step_pq(8) == 2
    assert seq.emapt_step_pq(6) == 8
    assert seq.emapt_step_pq(2) == 2
    assert seq.emapt_step_pq(18) == 14


@given(evens)
def test_even_engine_is_two_accelerated_steps(u):
    expected = seq.apt_step(seq.apt_step(u))
    assert seq.emapt_step_pq(u) == expected
    assert seq.emapt_step_ruler(u) == expected


def test_odd_engine_examples():
    assert seq.omapt_step(7) == 13
    assert seq.omapt_step(13) == 5
    assert seq.omapt_step(1) == 1


@given(odds)
def test_odd_engine_is_two_accelerated_steps(v):
    assert seq.omapt_step(v) == seq.apt_step(seq.apt_step(v))


@given(evens)
def test_u_to_v_is_odd_part(u):
    v = seq.u_to_v(u)
    assert v % 2 == 1
    assert u % v == 0
    assert (u // v) & (u // v - 1) == 0   # the quotient is a power of two


def test_x_step_examples():
    assert seq.x_step(0) == 0
    assert seq.x_step(1) == 0
    assert seq.x_step(3) == 1
    assert seq.x_step(2) == 4
    assert seq.x_step(10) == 40


@given(indices)
def test_x_step_transports_even_engine(x):
    assert 6 * seq.x_step(x) + 2 == seq.emapt_step_pq(6 * x + 2)


@pytest.mark.parametrize(
    "fn,bad",
    [
        (seq.collatz_step, 0),
        (seq.terras_step, -1),
        (seq.apt_step, 0),
        (seq.emapt_step_pq, 7),
        (seq.emapt_step_pq, 0),
        (seq.emapt_step_ruler, 9),
        (seq.omapt_step, 4),
        (seq.omapt_step, -3),
        (seq.u_to_v, 5),
        (seq.x_step, -1),
    ],
)
def test_step_domain_errors(fn, bad):
    with pytest.raises(DomainError):
        fn(bad)


# --- tracing -------------------------------------------------------------


def test_trace_accelerated():
    t = seq.trace("A", 7, 100)
    assert t.elements == (7, 26, 13, 20, 5, 8, 1)
    assert t.outcome is Outcome.REACHED_TARGET
    assert t.stopping_time == 6


def test_trace_even_engine():
    t = seq.trace("U", 20, 100)
    assert t.elements == (20, 8, 2)
    assert t.stopping_time == 2


def test_trace_plain():
    t = seq.trace("C", 6, 100)
    assert t.elements == (6, 3, 10, 5, 16, 8, 4, 2, 1)
    assert t.stopping_time == 8


def test_trace_start_on_target():
    t = seq.trace("X", 0, 10)
    assert t.elements == (0,)
    assert t.stopping_time == 0
    assert t.outcome is Outcome.REACHED_TARGET
    assert seq.trace("U", 2, 10).stopping_time == 0


def test_trace_budget_exhaustion_is_not_an_error():
    t = seq.trace("C", 7, 3)
    assert t.outcome is Outcome.BUDGET_EXHAUSTED
    assert t.stopping_time is None
    assert t.elements == (7, 22, 11, 34)


def test_trace_custom_target():
    t = seq.trace("C", 7, 100, target=11)
    assert t.elements == (7, 22, 11)
    assert t.stopping_time == 2


def test_trace_generalized_reaches_one():
    t = seq.trace("G", 7, 100, params=GParams(3, 1))
    assert t.outcome is Outcome.REACHED_TARGET
    assert t.elements[-1] == 1
    h = seq.trace("H", 7, 100, params=GParams(3, 1))
    assert h.elements == (7, 26, 13, 20, 5, 8, 1)


def test_trace_explicit_ceiling_stops():
    t = seq.trace("G", 3, 100, params=GParams(7, 5), magnitude_ceiling=10)
    assert t.outcome is Outcome.DOMAIN_STOP
    assert t.elements == (3, 13)
    assert t.stopping_time is None


def test_trace_divergent_hits_default_ceiling():
    # (5n + 3)/2 grows without descending from 7; the ceiling cuts it off
    t = seq.trace("G", 7, 100_000, params=GParams(5, 3))
    assert t.outcome is Outcome.DOMAIN_STOP
    assert t.elements[-1] > seq.DEFAULT_MAGNITUDE_CEILING
    assert len(t.elements) == 27323


def test_trace_validation():
    with pytest.raises(ConfigurationError):
        seq.trace("Z", 1, 10)
    with pytest.raises(ConfigurationError):
        seq.trace("G", 1, 10)   # missing params
    with pytest.raises(DomainError):
        seq.trace("U", 7, 10)
    with pytest.raises(DomainError):
        seq.trace("V", 4, 10)
    with pytest.raises(DomainError):
        seq.trace("C", 0, 10)
    with pytest.raises(DomainError):
        seq.trace("X", -1, 10)
    with pytest.raises(DomainError):
        seq.trace("C", 7, 0)


# --- stopping-time table ----------------------------------------------------


def test_stats_rows():
    table = seq.stopping_stats(1, 8, 1000)
    assert table.rows[0] == seq.StatsRow(1, 1, 1, 1, False)
    assert table.rows[6] == seq.StatsRow(7, 17, 12, 7, False)
    assert table.rows[7] == seq.StatsRow(8, 4, 4, 2, False)
    assert [r.n for r in table.rows] == list(range(1, 9))


def test_stats_budget_exhaustion():
    table = seq.stopping_stats(7, 7, 3)
    row = table.rows[0]
    assert row.exhausted
    assert row.c_len is None and row.t_len is None
    assert row.a_len is None
    # Each orbit exhausts on its own: 7 takes 16 plain, 11 half- and 6
    # accelerated steps.
    assert seq.stopping_stats(7, 7, 13).rows[0] == seq.StatsRow(7, None, 12, 7, True)
    assert seq.stopping_stats(7, 7, 8).rows[0] == seq.StatsRow(7, None, None, 7, True)


def test_stats_parallel_matches_serial(monkeypatch):
    # One row per worker is enough here, so the small table still fans out.
    monkeypatch.setattr(seq, "_ROWS_PER_WORKER", 1)
    serial = seq.stopping_stats(1, 200, 10_000, workers=1)
    parallel = seq.stopping_stats(1, 200, 10_000, workers=4)
    assert serial == parallel


def test_stats_pool_only_for_large_tables(monkeypatch):
    from collatz_lab import parallel

    seen = []

    def spy(fn, lo, hi, workers, args=()):
        seen.append(workers)
        return []

    monkeypatch.setattr(parallel, "run_chunked", spy)
    per_worker = seq._ROWS_PER_WORKER
    seq.stopping_stats(1, 5_000, 100, workers=2)
    seq.stopping_stats(1, 2 * per_worker - 1, 100, workers=8)
    seq.stopping_stats(1, 2 * per_worker, 100, workers=8)
    seq.stopping_stats(1, 2 * per_worker, 100, workers=1)
    assert seen == [1, 1, 2, 1]


def test_stats_validation():
    with pytest.raises(DomainError):
        seq.stopping_stats(5, 4, 100)
    with pytest.raises(DomainError):
        seq.stopping_stats(0, 4, 100)
    with pytest.raises(DomainError):
        seq.stopping_stats(1, 4, 0)


@pytest.mark.parametrize(
    "override,error",
    [
        ({"lo": 1.0}, DomainError),
        ({"hi": True}, DomainError),
        ({"budget": True}, DomainError),
        ({"budget": 2.5}, DomainError),
        ({"workers": True}, ConfigurationError),
        ({"workers": 1.5}, ConfigurationError),
        ({"workers": 0}, ConfigurationError),
    ],
)
def test_stats_rejects_bool_and_non_int_arguments(override, error):
    args = {"lo": 1, "hi": 5, "budget": 100, **override}
    with pytest.raises(error):
        seq.stopping_stats(**args)
