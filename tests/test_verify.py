"""Range checkers: clean sweeps, determinism, caps, and the OEIS path."""

import os
import time

import pytest

import oracles
from collatz_lab import parallel, verify
from collatz_lab.errors import BFileParseError, ConfigurationError, DomainError
from collatz_lab.oeis import GENERATORS, check_oeis, parse_bfile


CLEAN_SWEEPS = [
    ("covering", 1, 300),
    ("parity-runs", 1, 500),
    ("u-residues", 2, 600),
    ("u-residues-odd-starts", 1, 399),
    ("x-residues", 0, 500),
    ("p3n", 0, 500),
    ("dual-forms", 0, 500),
    ("linear-fixed-point", 2, 600),
    ("conjecture-apt", 1, 300),
    ("conjecture-emapt", 0, 300),
]


# lo at every residue mod 6 above the floor of each checker whose span steps
# through a residue class
EDGE_SWEEPS = [
    (theorem, lo, lo + 13)
    for theorem, floor in [
        ("u-residues", 2),
        ("u-residues-odd-starts", 1),
        ("dual-forms", 0),
        ("linear-fixed-point", 2),
    ]
    for lo in range(floor, floor + 6)
]

# what each checker counts as checked, by brute force over [lo, hi]
CHECKED_INPUTS = {
    "u-residues": lambda n: n % 2 == 0,
    "u-residues-odd-starts": lambda n: n % 2 == 1,
    "dual-forms": lambda n: 2 if n % 2 == 0 and n >= 2 else 1,
    "linear-fixed-point": lambda n: n % 6 == 2,
}


@pytest.mark.parametrize(
    "theorem,lo,hi",
    CLEAN_SWEEPS + EDGE_SWEEPS,
    ids=[c[0] for c in CLEAN_SWEEPS] + [f"{t}-lo{lo}" for t, lo, _ in EDGE_SWEEPS],
)
def test_checkers_clean_on_small_ranges(theorem, lo, hi):
    report = verify.run_check(theorem, lo, hi, budget=10_000)
    assert report.violation_count == 0
    assert report.violations == ()
    assert report.budget_exhausted == ()
    assert report.checked > 0
    assert report.theorem_id == theorem
    counts = CHECKED_INPUTS.get(theorem, lambda n: 1)
    assert report.checked == sum(counts(n) for n in range(lo, hi + 1))


def test_u_residues_allows_off_pattern_first_image():
    # 18 maps to 14, which is 2 mod 6 but not 2 or 8 mod 18; the mod-18
    # pattern is only claimed from the second image onward
    report = verify.run_check("u-residues", 18, 18)
    assert report.checked == 1
    assert report.violation_count == 0


def test_u_residues_rejects_odd_floor():
    with pytest.raises(DomainError):
        verify.run_check("u-residues", 1, 100)


def test_observational_flag():
    assert verify.run_check("u-residues-odd-starts", 1, 9).observational
    assert not verify.run_check("u-residues", 2, 10).observational


def test_conjecture_families():
    apt = verify.run_check("conjecture-apt", 1, 50)
    assert apt.theorem_id == "conjecture-apt"
    emapt = verify.run_check("conjecture-emapt", 0, 50)
    assert emapt.theorem_id == "conjecture-emapt"
    with pytest.raises(ConfigurationError):
        verify.run_check("conjecture-terras", 1, 50)


def test_budget_exhaustion_is_recorded_not_raised():
    report = verify.run_check("conjecture-apt", 1, 9, budget=1)
    assert report.violation_count == 0
    assert report.budget_exhausted == (3, 5, 6, 7, 9)


# Steps the walk of each budgeted checker needs from seed n, by the literal
# oracles, and the seed parity a checker takes (None: every seed).
WALK_STEPS = {
    "covering": (None, lambda n: oracles.orbit_lengths_by_iteration(n, 10**6)[0] - 1),
    "u-residues": (0, lambda u: oracles.emapt_stopping_by_iteration(u, 10**6)),
    # An odd seed's free ruler-form step is one accelerated step.
    "u-residues-odd-starts": (
        1,
        lambda v: oracles.emapt_stopping_by_iteration(
            oracles.apt_step_by_iteration(v), 10**6
        ),
    ),
    "conjecture-apt": (None, lambda n: oracles.apt_stopping_by_iteration(n, 10**6)),
    "conjecture-emapt": (
        None,
        lambda n: oracles.emapt_stopping_by_iteration(6 * n + 2, 10**6),
    ),
}


@pytest.mark.parametrize("theorem", sorted(WALK_STEPS))
def test_seed_finishing_on_the_last_budget_step_is_not_exhausted(theorem):
    parity, steps = WALK_STEPS[theorem]
    checked = 0
    for n in range(2, 300):
        if parity is not None and n % 2 != parity:
            continue
        b = steps(n)
        if b < 2:
            continue   # b - 1 would be below the smallest budget
        assert verify.run_check(theorem, n, n, budget=b).budget_exhausted == (), n
        assert verify.run_check(theorem, n, n, budget=b - 1).budget_exhausted == (n,), n
        checked += 1
    assert checked >= 140


def test_reports_identical_across_worker_counts():
    reference = None
    for workers in (1, 2, 8):
        report = verify.run_check("covering", 1, 400, budget=10_000, workers=workers)
        if reference is None:
            reference = report
        else:
            assert report == reference


@pytest.mark.parametrize(
    "theorem,lo,hi",
    [("covering", 1, 300), ("u-residues", 2, 600), ("dual-forms", 0, 500),
     ("linear-fixed-point", 2, 600), ("conjecture-apt", 1, 2000)],
)
def test_reports_equal_at_one_and_four_workers(theorem, lo, hi, eight_cpus):
    # reports are plain values: no wall-clock time rides along
    serial = verify.run_check(theorem, lo, hi, budget=10_000, workers=1)
    assert verify.run_check(theorem, lo, hi, budget=10_000, workers=4) == serial


def test_run_check_validation():
    with pytest.raises(ConfigurationError):
        verify.run_check("no-such-theorem", 1, 10)
    with pytest.raises(DomainError):
        verify.run_check("covering", 0, 10)        # below the checker floor
    with pytest.raises(DomainError):
        verify.run_check("linear-fixed-point", 1, 10)
    with pytest.raises(DomainError):
        verify.run_check("p3n", 10, 5)             # empty range
    with pytest.raises(DomainError):
        verify.run_check("covering", 1, 10, budget=0)
    with pytest.raises(ConfigurationError):
        verify.run_check("covering", 1, 10, cap=0)


@pytest.mark.parametrize(
    "override,error",
    [
        ({"lo": True}, DomainError),
        ({"lo": 1.0}, DomainError),
        ({"hi": True}, DomainError),
        ({"hi": 10.0}, DomainError),
        ({"budget": True}, DomainError),
        ({"budget": 100.0}, DomainError),
        ({"cap": True}, ConfigurationError),
        ({"cap": 5.0}, ConfigurationError),
        ({"workers": True}, ConfigurationError),
        ({"workers": 1.5}, ConfigurationError),
        ({"workers": 0}, ConfigurationError),
        ({"workers": -3}, ConfigurationError),
    ],
)
def test_run_check_rejects_bool_and_non_int_arguments(override, error):
    args = {"lo": 1, "hi": 10, **override}
    with pytest.raises(error):
        verify.run_check("covering", **args)


def _always_bad_span(lo, hi, budget):
    return hi - lo + 1, [(n, "synthetic") for n in range(lo, hi + 1)], []


def test_violation_cap_keeps_total_count(monkeypatch):
    monkeypatch.setitem(
        verify.CHECKERS, "synthetic", verify.CheckerSpec(_always_bad_span, 0)
    )
    report = verify.run_check("synthetic", 1, 100, cap=5)
    assert report.violation_count == 100
    assert len(report.violations) == 5
    assert [v.input for v in report.violations] == [1, 2, 3, 4, 5]


def test_violations_sorted_across_chunks(monkeypatch, eight_cpus):
    monkeypatch.setitem(
        verify.CHECKERS, "synthetic", verify.CheckerSpec(_always_bad_span, 0)
    )
    report = verify.run_check("synthetic", 1, 200, workers=4, cap=200)
    inputs = [v.input for v in report.violations]
    assert inputs == sorted(inputs) == list(range(1, 201))


def _span_pids(lo, hi):
    return [(n, os.getpid()) for n in range(lo, hi + 1)]


def _run_recording_forks(monkeypatch, installed, allowed, workers, hi, span=_span_pids):
    """run_chunked over 1..hi with `installed` CPUs, `allowed` of them open to
    this process (None: a platform without sched_getaffinity), counting its
    forks; returns the processes that ran, the spans cut, and the pids that
    ran them."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(parallel.os, "fork", fork)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: installed)
    if allowed is None:
        monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: set(range(allowed)), raising=False)
    parts = parallel.run_chunked(span, 1, hi, workers)
    # perfbench's probe_parallel iterates the result more than once.
    assert type(parts) is list
    assert [n for part in parts for n, _ in part] == list(range(1, hi + 1))
    return len(forks) + 1, len(parts), {pid for part in parts for _, pid in part}


@pytest.mark.parametrize(
    "cpus,workers,hi,expected",
    [(2, 3, 100, 2), (2, 10_000, 100, 2), (64, 10, 3, 3), (None, 4, 100, 1),
     (1, 4, 100, 1), (8, 4, 1, 1)],
)
def test_pool_size_bounded_by_cpus_and_spans(monkeypatch, cpus, workers, hi, expected):
    # expected processes, the parent one of them.  cpus is both the installed
    # count and the affinity, or None where neither is known.  (64, 10, 3):
    # ten processes cut three spans, and three processes claim them.
    processes, spans, pids = _run_recording_forks(monkeypatch, cpus, cpus, workers, hi)
    assert processes == expected
    # Spans follow the clamped pool, not the requested worker count; one
    # process runs the range as one span.
    assert spans == (min(4 * expected, hi) if expected > 1 else 1)
    assert len(pids) <= processes


def test_pool_size_bounded_by_cpu_affinity(monkeypatch):
    # Two CPUs installed, but this process may run on one: no fork.
    assert _run_recording_forks(monkeypatch, 2, 1, 4, 100) == (1, 1, {os.getpid()})


_TEST_PID = os.getpid()


def _slow_span(lo, hi):
    if os.getpid() != _TEST_PID:
        time.sleep(0.3)
    elif lo == 1:
        time.sleep(0.2)
    return _span_pids(lo, hi)


def test_results_in_span_order_with_a_slow_span(monkeypatch):
    # The parent claims the first span and sleeps while the child claims the
    # second; the child sleeps longer, and the parent finishes the other six
    # first.  The results still come back in span order.
    processes, spans, pids = _run_recording_forks(monkeypatch, 2, 2, 2, 100, _slow_span)
    assert (processes, spans, len(pids)) == (2, 8, 2)


def _raising_span(lo, hi):
    if os.getpid() == _TEST_PID:
        time.sleep(0.2)   # so that a child is sure to claim a span
        return _span_pids(lo, hi)
    raise DomainError(f"synthetic failure at {lo}")


def _interrupted_span(lo, hi):
    if os.getpid() == _TEST_PID:
        raise KeyboardInterrupt
    time.sleep(60)   # a child that outlived the parent's span would hold the test
    return _span_pids(lo, hi)


def test_child_exception_raises_with_its_type(eight_cpus):
    with pytest.raises(DomainError, match="synthetic failure at"):
        parallel.run_chunked(_raising_span, 1, 100, 2)


def test_interrupted_parent_kills_and_reaps_its_children(eight_cpus):
    # The autouse no_child_left fixture then finds no child, running or not.
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        parallel.run_chunked(_interrupted_span, 1, 100, 4)
    assert time.perf_counter() - start < 30


# --- OEIS cross-checks -------------------------------------------------------


def test_parse_bfile_basic():
    assert parse_bfile("1 1\n2 2\n3 1") == [(1, 1), (2, 2), (3, 1)]
    assert parse_bfile("# comment\n0 0") == [(0, 0)]
    assert parse_bfile("\n\n1 5\n\n# x\n2 7\n") == [(1, 5), (2, 7)]


def test_parse_bfile_errors():
    with pytest.raises(BFileParseError) as exc:
        parse_bfile("1 x")
    assert exc.value.line_no == 1
    with pytest.raises(BFileParseError):
        parse_bfile("1 1 1")
    with pytest.raises(BFileParseError) as exc:
        parse_bfile("2 1\n1 2")
    assert exc.value.line_no == 2
    with pytest.raises(BFileParseError):
        parse_bfile("5 1\n5 2")   # repeated index


@pytest.mark.parametrize(
    "generator,fixture",
    [
        ("ruler", "b001511.txt"),
        ("interleave_p", "b025480.txt"),
        ("w_candidate", "b007310.txt"),
    ],
)
def test_check_oeis_against_fixtures(generator, fixture, data_dir):
    content = (data_dir / fixture).read_text()
    report = check_oeis(content, generator, count=2000)
    assert report.violation_count == 0
    assert report.checked == 2000
    assert report.theorem_id == f"oeis-{GENERATORS[generator].oeis_id}-{generator}"


def test_check_oeis_reports_equal_on_repeat(data_dir):
    content = (data_dir / "b001511.txt").read_text()
    assert check_oeis(content, "ruler", count=500) == check_oeis(content, "ruler", count=500)


def test_check_oeis_flags_divergence():
    content = "1 1\n2 2\n3 9\n4 3"
    report = check_oeis(content, "ruler", count=4)
    assert report.violation_count == 1
    assert report.violations[0].input == 3
    assert "file has 9" in report.violations[0].detail


def test_check_oeis_configuration_errors():
    with pytest.raises(ConfigurationError):
        check_oeis("1 1", "fibonacci", count=1)
    with pytest.raises(ConfigurationError):
        check_oeis("1 1", "ruler", count=0)
    with pytest.raises(ConfigurationError):
        check_oeis("1 1", "ruler", count=5)       # too few terms
    with pytest.raises(ConfigurationError):
        check_oeis("0 0\n1 1", "ruler", count=2)  # offset mismatch


@pytest.mark.parametrize(
    "override",
    [{"count": True}, {"count": 1.5}, {"cap": 0}, {"cap": True}, {"cap": 2.0}],
)
def test_check_oeis_rejects_bool_and_non_int_arguments(override):
    args = {"count": 2, **override}
    with pytest.raises(ConfigurationError):
        check_oeis("1 1\n2 2", "ruler", **args)
