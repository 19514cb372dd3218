"""Compiled backend must agree with the pure-Python reference everywhere.

The compiled kernels take uint64 fast paths and fall back per call for
anything larger, so the values around 2**63 / 2**64 are the interesting
boundary; the random sweep crosses it on purpose, and the budgets and
fallback windows below straddle cutoffs where the compiled module hands a
call to `_pure` (tests/test_spans.py runs every range kernel across them).
The ``fast`` fixture (tests/conftest.py) builds the compiled module from
its committed C source with README's gcc line, and ``impl`` runs a test on
each backend in turn.  The kernels in `PURE_ONLY` have no compiled twin:
`covering_chain` is checked against the literal orbits in `oracles`, and
the stopping counters against literal loops in tests/test_stopping.py; the
compiled orbit walks they share with the spans are checked through
`span_covering`, `span_conjecture_apt` and `span_conjecture_emapt`.
"""

import functools
import importlib.util
import pathlib
import re
import sys
import types

import pytest
from hypothesis import given, strategies as st

import oracles
from collatz_lab import _pure, kernels
from conftest import (
    BIG_BUDGETS, BOUNDARY, FAST_SOURCE, GCC_FLAGS, RANDOMS, SAFE3, build_fast, patched_pure,
)

#: The kernels with no compiled twin, which run pure on both backends; the
#: compiled module's method table is the only other record of the split.
#: `stats` walks `orbit_lengths`, and no command reaches the other four.
PURE_ONLY = {
    "orbit_lengths",
    "covering_chain",
    "apt_stopping",
    "emapt_stopping",
    "scan_emapt_forms",
}


def on_backends(calls, call_id, both=()):
    """Parametrizes ``impl, call`` with each call on `_pure`, and on the
    compiled module where its kernel has a twin or the call is in `both`."""
    return pytest.mark.parametrize(
        "impl,call",
        [
            pytest.param(backend, call, id=f"{backend}-{call_id(call)}")
            for backend in ("pure", "compiled")
            for call in [*calls, *both]
            if backend == "pure" or call in both or call[0] not in PURE_ONLY
        ],
        indirect=["impl"],
    )


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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:   # the exception type is the result to compare
        return type(exc)


#: `_pure`'s outcome at 0 of each kernel whose compiled twin takes ctz(0).
AT_ZERO = {
    "ruler": 0,
    "odd_part": ValueError,
    "apt_step": ValueError,
    "emapt_step_ruler": ValueError,
}


@pytest.mark.parametrize("name", AT_ZERO)
def test_zero_matches_pure(impl, name):
    # ctz(0) has no answer; the compiled kernels must not loop on it.
    assert _outcome(getattr(impl, name), 0) == AT_ZERO[name]


#: Calls outside the kernels' domain, where `_pure` once hung (a negative odd
#: p argument halves to -1 forever) or indexed its tables with 0, and where
#: the uint64 formulas gave values of their own; each with `_pure`'s outcome.
OUT_OF_DOMAIN = {
    ("interleave_p", -1): ValueError,
    ("interleave_p", -6): ValueError,
    ("emapt_step_pq", 0): ValueError,
    ("emapt_step_pq", 1): ValueError,
    ("omapt_step", 0): ValueError,
    ("x_step", -1): ValueError,
    ('scan_p3n', -5, 10): ValueError,
    ("apt_stopping", 0, 5): ValueError,
    ("apt_stopping", -3, 5): ValueError,
    ("apt_stopping", 0, 0): ValueError,
    ("apt_stopping", 0, -1): ValueError,
    ("covering_chain", 0, 5): ValueError,
    ("covering_chain", 0, 0): ValueError,
    ("covering_chain", -3, 5): ValueError,
    ("emapt_stopping", 0, 5): ValueError,
    ("emapt_stopping", 0, 0): ValueError,
    ("emapt_stopping", 0, -1): ValueError,
    ("emapt_stopping", 1, 5): 0,
    ("emapt_stopping", 7, 5): 3,
}


#: Float budgets on the starts that `_pure` answers without a walk.  The
#: compiled module has no stopping counter, so there the same start and
#: budget go to its reach span, which must reject the float as `_pure` does.
FLOAT_BUDGETS = {
    ("apt_stopping", 1, 10.5): ("span_conjecture_apt", 1, 1, 10.5),
    ("emapt_stopping", 2, 10.5): ("span_conjecture_emapt", 0, 0, 10.5),   # 6n + 2 = 2
}


@on_backends(OUT_OF_DOMAIN, str, both=list(FLOAT_BUDGETS))
def test_out_of_domain_matches_pure(impl, call):
    name, *args = call
    door, *door_args = call if hasattr(impl, name) else FLOAT_BUDGETS[call]
    expected = OUT_OF_DOMAIN[call] if call in OUT_OF_DOMAIN else TypeError   # a float budget
    assert _outcome(getattr(impl, door), *door_args) == expected


#: Each multi-argument kernel with arguments in its domain.
IN_DOMAIN_CALLS = [
    ("covering_chain", 27, 100),
    ("apt_stopping", 27, 100),
    ("emapt_stopping", 20, 100),
    ("scan_p3n", 0, 50),
    ("scan_x_residues", 0, 50),
    ("scan_emapt_forms", 2, 50),
    ("span_u_residues", 2, 50, 100),
    ("span_u_residues_odd", 1, 50, 100),
    ("span_parity_runs", 1, 50),
    ("span_dual_forms", 0, 50),
    ("span_linear_fixed_point", 2, 50),
    ("span_covering", 1, 50, 100),
    ("span_conjecture_apt", 1, 50, 100),
    ("span_conjecture_emapt", 0, 50, 100),
]


@on_backends(IN_DOMAIN_CALLS, lambda c: c[0])
def test_bad_arguments_match_pure(impl, call):
    # One argument short, one extra, and a str, None or float in each place.
    name, *args = call
    bad_calls = [args[:-1], [*args, 5]]
    for i in range(len(args)):
        bad_calls += [[*args[:i], wrong, *args[i + 1:]] for wrong in ("7", None, 10.5)]
    for bad in bad_calls:
        outcome = _outcome(getattr(impl, name), *bad)
        assert outcome == _outcome(getattr(_pure, name), *bad) == TypeError, bad


def test_pure_rejects_what_it_cannot_walk():
    for call in [("interleave_p", -1), ("emapt_step_pq", 1), ("orbit_lengths", 0, 5),
                 ("apt_stopping", 0, 5), ("emapt_stopping", 0, 5)]:
        name, *args = call
        with pytest.raises(ValueError):
            getattr(_pure, name)(*args)
    # Up front: walking 0 would fill the whole budget first.
    with pytest.raises(ValueError, match="orbits start at n >= 1"):
        _pure.covering_chain(0, 10**6)
    assert _pure.emapt_stopping(1, 5) == 0
    # A float budget, even on a start that needs no walk.
    for name, start in [("apt_stopping", 1), ("emapt_stopping", 2)]:
        with pytest.raises(TypeError):
            getattr(_pure, name)(start, 10.5)


#: Budgets for every covering start: none, one and three steps, and the
#: checkers' default.
COVERING_BUDGETS = (-1, 0, 1, 3, 100_000)
#: Powers of two and their predecessors, across 2**63 / 2**64, plus bigints.
COVERING_EDGES = sorted(
    {2**k for k in range(70)}
    | {2**k - 1 for k in range(1, 70)}
    | {2**63, 2**64, 2**64 + 5, 2**68 - 2, 2**68 + 2, 3**45}
)


#: The literal orbits once per (n, budget), for both backends.
_literal_covering = functools.cache(oracles.covering_chain_by_iteration)


def _assert_covering(impl, n, budgets):
    """`covering_chain` against the literal orbits, and the backend's covering
    span, whose lock-step walk is the same, from n alone."""
    for budget in sorted(budgets):
        assert _pure.covering_chain(n, budget) == _literal_covering(
            n, budget
        ), f"covering_chain({n}, {budget})"
        assert impl.span_covering(n, n, budget) == oracles.covering_span(
            n, n, budget
        ), f"span_covering({n}, {n}, {budget})"


def _length_budgets(n):
    """Each orbit's step count - 1, itself and + 1 (its length is steps + 1),
    and its length + 1."""
    lengths = _literal_covering(n, 100_000)[:3]
    assert min(lengths) > 0
    return {length + d for length in lengths for d in (-2, -1, 0, 1)}


def test_covering_chain_matches_literal_orbits(impl):
    # The length budgets keep `cover()` tested across 2**63 and 2**64.
    for n in [*range(1, 5001), *range(8_500_000, 8_501_000), *COVERING_EDGES]:
        _assert_covering(impl, n, COVERING_BUDGETS)
    for n in [*range(1, 1001), *COVERING_EDGES]:
        _assert_covering(impl, n, _length_budgets(n))


@given(st.integers(min_value=1, max_value=2**300))
def test_covering_chain_matches_literal_orbits_on_bigints(impl, n):
    _assert_covering(impl, n, {100_000, *_length_budgets(n)})


def test_covering_chain_agrees(fast):
    # A budget past long long hands the compiled span to `_pure` whole.
    for n in [*range(1, 500), *COVERING_EDGES]:
        _assert_covering(fast, n, BIG_BUDGETS)


def test_covering_chain_budget_sentinels_agree(fast):
    # Budget 3 leaves these orbits unfinished: the compiled span flags each
    # exhausted, alone and inside a window whose memo holds finished tails.
    for n in (7, 27, 97):
        assert fast.span_covering(n, n, 3) == oracles.covering_span(n, n, 3) == (1, [], [n])
    assert fast.span_covering(1, 100, 3) == oracles.covering_span(1, 100, 3)


def test_lock_step_with_a_memo_matches_without():
    # One memo across consecutive starts, as `span_covering` keeps it: each
    # walk ends on a tail an earlier one stored, at budgets one step short
    # of each orbit's count and at the count.
    tails = {}
    for n in [*range(1, 3000), *range(2**68, 2**68 + 100)]:
        full = _pure.covering_chain(n, 100_000)
        for budget in (100_000, *(length + d for length in full[:3] for d in (-2, -1))):
            assert _pure._lock_step(n, budget, tails) == _pure.covering_chain(n, budget), (
                n,
                budget,
            )
    assert tails


#: Broken maps that still reach 1, for the path no start takes: a half-step
#: map that visits 8 before 16 from 5 (the plain orbit has 16 first), and a
#: plain map that skips 8 after 16.
BROKEN_MAPS = [
    ("_t_step", 1, lambda x: {5: 8, 8: 16, 16: 4}.get(x) or oracles.terras_step(x)),
    ("_c_step", 0, lambda x: 4 if x == 16 else oracles.collatz_step(x)),
]


@pytest.mark.parametrize(
    "name,which,broken", BROKEN_MAPS, ids=[m[0] for m in BROKEN_MAPS]
)
def test_pure_covering_chain_reports_a_broken_embedding(
    monkeypatch, name, which, broken
):
    steps = [oracles.collatz_step, oracles.terras_step, oracles.apt_step_by_iteration]
    steps[which] = broken
    monkeypatch.setattr(_pure, name, broken)
    oks = set()
    for n in range(1, 200):
        for budget in (3, 8, 100_000):
            want = oracles.covering_chain_by_iteration(n, budget, steps)
            assert _pure.covering_chain(n, budget) == want, (n, budget)
            oks.add(want[3])
    assert oks == {-1, 0, 1}
    # The span walks share finished tails: a walk that did not embed, or did
    # not finish, must store none, or a later start ending on it goes wrong.
    for budget in (3, 8, 100_000):
        assert _pure.span_covering(1, 199, budget) == oracles.covering_span(1, 199, budget)


#: The same broken maps in C, and a pq step off by 2, each defined in place
#: of the step helper it breaks, for a copy of the source patched above
#: FALLBACK_SECTION.
BROKEN_C_STEPS = {
    "_t_step": """
static inline int broken_t_u64(u64 x, u64 *out)
{
    if (x == 5 || x == 8 || x == 16) {
        *out = x == 5 ? 8 : x == 8 ? 16 : 4;
        return 1;
    }
    return t_u64(x, out);
}
#define t_u64 broken_t_u64

""",
    "_c_step": """
static inline int broken_c_u64(u64 x, u64 *out)
{
    if (x == 16) {
        *out = 4;
        return 1;
    }
    return c_u64(x, out);
}
#define c_u64 broken_c_u64

""",
    "emapt_step_pq": """
static inline int broken_emapt_pq_u64(u64 u, u64 *out)
{
    int fits = emapt_pq_u64(u, out);
    *out += 2;
    return fits;
}
#define emapt_pq_u64 broken_emapt_pq_u64

""",
}
FALLBACK_SECTION = "/* --- arguments and the _pure fallback"


def _broken_fast(name, directory):
    """The compiled module built from a copy of the source in which the step
    helper `BROKEN_C_STEPS[name]` names is broken.  The helpers are inline C
    that no test can swap."""
    source = FAST_SOURCE.read_text()
    assert source.count(FALLBACK_SECTION) == 1
    patched = directory / FAST_SOURCE.name
    patched.write_text(
        source.replace(FALLBACK_SECTION, BROKEN_C_STEPS[name] + FALLBACK_SECTION)
    )
    return build_fast(patched, directory)


@pytest.mark.parametrize(
    "name,which,broken", BROKEN_MAPS, ids=[m[0] for m in BROKEN_MAPS]
)
def test_compiled_covering_chain_reports_a_broken_embedding(
    tmp_path, name, which, broken
):
    broken_fast = _broken_fast(name, tmp_path)
    steps = [oracles.collatz_step, oracles.terras_step, oracles.apt_step_by_iteration]
    steps[which] = broken
    oks = set()
    for budget in (3, 8, 100_000):
        got = broken_fast.span_covering(1, 199, budget)
        lengths = [oracles.covering_chain_by_iteration(n, budget, steps) for n in range(1, 200)]
        oks |= {ok for *_, ok in lengths}
        assert got == (
            199,
            [(n, "orbit containment failed") for n, (*_, ok) in enumerate(lengths, 1) if ok == 0],
            [n for n, (*_, ok) in enumerate(lengths, 1) if ok < 0],
        ), budget
    assert oks == {-1, 0, 1}


#: The pq step inlined in the pure residue walk, and the same step broken.
PQ_LINE = "x = (2 * (n >> 1) + 1) * 3 ** (m & -m).bit_length() - 1"
BROKEN_PQ_LINE = PQ_LINE.removesuffix("- 1") + "+ 1"


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_residue_walks_report_a_broken_pq_step(tmp_path, backend):
    # No input in either span's domain is known to break the pattern, so
    # only a broken step reaches the violation branches.  The pure copy's
    # residue walk steps to pq(x) + 2.
    if backend == "pure":
        module = patched_pure(PQ_LINE, BROKEN_PQ_LINE)
    else:
        module = _broken_fast("emapt_step_pq", tmp_path)
    broken = lambda x: _pure.emapt_step_pq(x) + 2
    even = module.span_u_residues(2, 12, 50)
    odd = module.span_u_residues_odd(1, 11, 50)
    assert even == oracles.u_residues_span(2, 12, 50, broken)
    assert odd == oracles.u_residues_odd_span(1, 11, 50, broken)
    assert (4, "element 4 is not 2 mod 6") in even[1]
    assert (7, "element 22 is not 2 or 8 mod 18") in odd[1]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_linear_relation_reports_a_broken_pq_step(tmp_path, monkeypatch, backend):
    # The relation holds exactly where the pq step does, so only a broken
    # step reaches the violation branch: at every seed.
    pq = _pure.emapt_step_pq
    broken = lambda u: pq(u) + 2
    if backend == "pure":
        monkeypatch.setattr(_pure, "emapt_step_pq", broken)
        module = _pure
    else:
        module = _broken_fast("emapt_step_pq", tmp_path)
    got = module.span_linear_fixed_point(2, 3000)
    assert got == oracles.linear_fixed_point_span(2, 3000, broken)
    assert got[1] == [(u, "linear relation failed") for u in range(2, 3001, 6)]


def test_stopping_agrees_at_big_budgets(fast):
    # The compiled reach spans from one start, at budgets below, at and past
    # long long, against the pure stopping counters.
    for n in [*range(1, 500), *BOUNDARY]:
        for budget in BIG_BUDGETS:
            assert fast.span_conjecture_apt(n, n, budget) == oracles.conjecture_apt_span(
                n, n, budget
            ), f"span_conjecture_apt({n}, {n}, {budget})"
            if n % 6 == 2:
                m = (n - 2) // 6
                assert fast.span_conjecture_emapt(m, m, budget) == oracles.conjecture_emapt_span(
                    m, m, budget
                ), f"span_conjecture_emapt({m}, {m}, {budget})"


def _covering_from_lengths(n, budget):
    """The covering span of n alone, read from `orbit_lengths`: n is exhausted
    exactly when one of its three orbits needs more than the budget."""
    return (1, [], [n] if -1 in _pure.orbit_lengths(n, budget) else [])


def test_orbit_lengths_agree_with_compiled_literal_orbits(fast):
    # The block walk against the compiled literal orbits of `cover()`, across
    # 2**63 / 2**64, and at budgets where an orbit just does or does not fit.
    for n in BOUNDARY + RANDOMS:
        for budget in (100_000, 3):
            assert fast.span_covering(n, n, budget) == _covering_from_lengths(
                n, budget
            ), f"orbit_lengths({n}, {budget})"
    for n in range(1, 400):
        lengths = _pure.orbit_lengths(n, 100_000)
        for budget in {length + d for length in lengths for d in (-2, -1, 0)}:
            assert fast.span_covering(n, n, budget) == _covering_from_lengths(
                n, budget
            ), f"orbit_lengths({n}, {budget})"


#: A compiled range kernel, a window, and the one `_pure` call it makes there:
#: the one element that does not fit in uint64, or everything past the limit.
FALLBACKS = [
    ("span_dual_forms", (2**41 - 64, 2**41 + 64), (2**41 - 1, 2**41 - 1)),
    # 2**42 - 2 is 2 (2**41 - 1): its ruler-form step is 3**41 - 1.
    ("span_linear_fixed_point", (2**42 - 64, 2**42 + 64), (2**42 - 2, 2**42 - 2)),
    ("scan_p3n", (SAFE3 - 8, SAFE3 + 8), (SAFE3 + 1, SAFE3 + 8)),
    # A bigint window goes whole, so its starts share the `_pure` memo.
    ("span_conjecture_apt", (2**68, 2**68 + 64, 1000), (2**68, 2**68 + 64, 1000)),
]


@pytest.mark.parametrize("name,window,handed", FALLBACKS, ids=[c[0] for c in FALLBACKS])
def test_range_hands_pure_only_what_does_not_fit(fast, monkeypatch, name, window, handed):
    # The compiled module looks the `_pure` kernel up on every fallback.
    pure_fn = getattr(_pure, name)
    calls = []

    def recorder(*args):
        calls.append(args)
        return pure_fn(*args)

    monkeypatch.setattr(_pure, name, recorder)
    assert getattr(fast, name)(*window) == pure_fn(*window)
    assert calls == [handed]


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


def _public_functions(module):
    return {name for name, value in vars(module).items() if callable(value) and name[0] != "_"}


def _assert_binds_the_kernels(module):
    """`module`, a `kernels`, exports each `_pure` kernel and nothing else
    but `BACKEND` and `DEFAULT_BUDGET`: no import of `_pure` leaks."""
    public = {name for name in vars(module) if not name.startswith("_")}
    assert public == _public_functions(_pure) | {"BACKEND", "DEFAULT_BUDGET"}
    for name in PURE_ONLY:
        assert getattr(module, name) is getattr(_pure, name), name


def _fresh_kernels(monkeypatch, compiled):
    """A new module run from `kernels`' source, with `compiled` as the
    extension it finds."""
    monkeypatch.setitem(sys.modules, "collatz_lab._fast", compiled)
    spec = importlib.util.spec_from_file_location("collatz_lab.kernels", kernels.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernels_binds_every_compiled_twin(fast, monkeypatch):
    fresh = _fresh_kernels(monkeypatch, fast)
    assert fresh.BACKEND == "compiled"
    twins = _public_functions(fast)
    assert twins
    for name in twins:
        assert getattr(fresh, name) is getattr(fast, name), name
    _assert_binds_the_kernels(fresh)


def test_a_stale_build_runs_its_missing_twins_pure(fast, monkeypatch):
    stale = types.ModuleType("collatz_lab._fast")
    vars(stale).update((k, v) for k, v in vars(fast).items() if k != "span_covering")
    fresh = _fresh_kernels(monkeypatch, stale)
    assert fresh.BACKEND == "compiled"
    assert fresh.span_covering is _pure.span_covering
    assert fresh.span_conjecture_apt is fast.span_conjecture_apt


def test_kernels_exports_exactly_the_kernels():
    _assert_binds_the_kernels(kernels)
    assert kernels.BACKEND in ("compiled", "pure-python")


def test_only_kernels_no_command_reaches_lack_a_compiled_twin(fast):
    # `kernels` binds each twin the compiled module has over the `_pure`
    # kernel, so a missing twin would run pure on compiled installs.
    names = _public_functions(_pure)
    assert {n for n in names if not hasattr(fast, n)} == PURE_ONLY
    # No module but `_pure` names the four no command reaches: the first
    # command that calls one must give it a compiled twin first.
    unreached = re.compile(r"\b(%s)\b" % "|".join(sorted(PURE_ONLY - {"orbit_lengths"})))
    for path in sorted(pathlib.Path(kernels.__file__).parent.glob("*.py")):
        if path.stem != "_pure":
            assert not unreached.search(path.read_text()), path.name
    # Loading the fixture's build must not make it the package's backend.
    assert sys.modules.get("collatz_lab._fast") is not fast


def test_kernel_benchmark_rows_run(impl):
    # The benchmark script calls its kernels by name: a renamed or deleted
    # kernel would break it only when someone runs it.
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for _, run, _ in bench.WORKLOADS:
        run(impl, 8)


def test_readme_gives_the_fixtures_build_line():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "gcc " + " ".join(GCC_FLAGS) + " $(python3-config --includes)" in readme
