"""Acceptance sweep: one test per shipping criterion, one PASS/FAIL line each.

Every criterion is exact integer arithmetic; the handful with wall-clock
bounds are timed here and hold on both kernel backends. Ranges follow the
shipping bar: index identities to 10**6, residue sweeps to 2 * 10**5, the
p(3n) exclusion to 10**7, orbit covering and conjecture sweeps to 10**5.
"""

import json
import random
import time

import pytest

import oracles
from collatz_lab import kernels, verify
from collatz_lab.cli import main
from collatz_lab.oeis import check_oeis
from collatz_lab.reverse_tree import (
    compose_path,
    cycle_scan,
    multiplicity,
    steiner_search,
    w_candidate,
    w_forward,
)
from collatz_lab.sequences import GParams, parity_flip

WORKERS = 8


@pytest.fixture
def announce(capsys):
    def _announce(num: int, slug: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"acceptance {num:02d} {slug}: {'PASS' if ok else 'FAIL'}",
                  flush=True)
        assert ok, f"acceptance criterion {num} ({slug}) failed"

    return _announce


def test_criterion_01_index_oracles(announce, data_dir):
    t0 = time.perf_counter()
    ok = all(
        kernels.ruler(n) == oracles.ruler_rec(n) for n in range(1, 10_001)
    ) and all(
        kernels.interleave_p(n) == oracles.p_rec(n)
        and kernels.shifted_ruler_q(n) == oracles.q_rec(n)
        for n in range(10_000)
    )
    for generator, fixture in (("ruler", "b001511.txt"),
                               ("interleave_p", "b025480.txt")):
        report = check_oeis((data_dir / fixture).read_text(), generator, 10_000)
        ok = ok and report.violation_count == 0
    ok = ok and time.perf_counter() - t0 < 1.0
    announce(1, "index-function oracles and b-files", ok)


def test_criterion_02_index_reconstruction(announce):
    t0 = time.perf_counter()
    ok = kernels.scan_index_reps(0, 10**6) == []
    ok = ok and time.perf_counter() - t0 < 5.0
    announce(2, "even/odd reconstruction to 1e6", ok)


def test_criterion_03_ruler_identities(announce):
    t0 = time.perf_counter()
    ok = kernels.scan_ruler_identities(0, 10**6) == []
    ok = ok and time.perf_counter() - t0 < 5.0
    announce(3, "ruler identities to 1e6", ok)


def test_criterion_04_parity_run_closed_forms(announce):
    ok = True
    for a, b in ((3, 1), (5, 3), (7, 5)):
        params = GParams(a, b)
        for g0 in range(1, 10_001):
            landing, runs = oracles.gapt_step_by_iteration(g0, a, b)
            flip = parity_flip(g0, params)
            if flip.output != landing or flip.run_length != runs:
                ok = False
                break
        if not ok:
            break
    announce(4, "closed forms equal iterated runs", ok)


def test_criterion_05_orbit_covering(announce):
    report = verify.run_check("covering", 1, 10**5, budget=10**5, workers=WORKERS)
    ok = report.violation_count == 0 and report.budget_exhausted == ()
    ok = ok and kernels.covering_chain(7, 10**5) == (17, 12, 7, 1)
    announce(5, "orbit covering chain to 1e5", ok)


def test_criterion_06_dual_forms(announce):
    report = verify.run_check("dual-forms", 0, 2 * 10**5, workers=WORKERS)
    ok = report.violation_count == 0
    announce(6, "dual step formulations agree to 2e5", ok)


def test_criterion_07_u_residues(announce):
    report = verify.run_check("u-residues", 2, 2 * 10**5, workers=WORKERS)
    ok = report.violation_count == 0 and report.budget_exhausted == ()
    announce(7, "mod-6 and mod-18 residues to 2e5", ok)


def test_criterion_08_index_residue_exclusions(announce):
    t0 = time.perf_counter()
    x_report = verify.run_check("x-residues", 0, 10**6, workers=WORKERS)
    p_report = verify.run_check("p3n", 0, 10**7, workers=WORKERS)
    ok = x_report.violation_count == 0 and p_report.violation_count == 0
    ok = ok and time.perf_counter() - t0 < 30.0
    announce(8, "mod-3 exclusions (x to 1e6, p(3n) to 1e7)", ok)


def test_criterion_09_listing_rows(announce):
    candidates = [w_candidate(m) for m in range(1, 21)]
    parents = [w_forward(w) for w in candidates]
    ok = candidates == [
        1, 5, 7, 11, 13, 17, 19, 23, 25, 29,
        31, 35, 37, 41, 43, 47, 49, 53, 55, 59,
    ] and parents == [
        1, 1, 13, 13, 5, 13, 11, 5, 19, 11,
        121, 5, 7, 31, 49, 121, 37, 5, 47, 67,
    ]
    announce(9, "first twenty candidate/parent rows", ok)


def test_criterion_10_one_step_cycle_grid(announce):
    announce(10, "cycle grid scan 20x20", steiner_search(20, 20) == [(1, 1, 2)])


def test_criterion_11_exact_linear_system(announce):
    report = verify.run_check("linear-fixed-point", 2, 10**5, workers=WORKERS)
    ok = report.violation_count == 0
    rng = random.Random(7)
    for _ in range(100):
        steps = [
            (rng.randint(1, 8), rng.randint(1, 8))
            for _ in range(rng.randint(1, 64))
        ]
        z0 = rng.randint(-10**6, 10**6)
        if compose_path(steps).apply(z0) != oracles.compose_by_sequential_apply(
            z0, steps
        ):
            ok = False
            break
    announce(11, "linear system, round trip, path composition", ok)


def test_criterion_12_cycles_and_multiplicity(announce):
    report = cycle_scan(1000, 10_000)
    ok = report.cycles == ((1,),) and report.budget_exhausted == ()
    ok = ok and multiplicity(5, 20) == (4, (13, 23, 35, 53))
    announce(12, "unique trivial cycle, preimage multiplicity", ok)


def test_criterion_13_conjecture_sweeps(announce):
    apt = verify.run_check(
        "conjecture-apt", 1, 10**5, budget=10**5, workers=WORKERS
    )
    emapt = verify.run_check(
        "conjecture-emapt", 0, 10**4, budget=10**5, workers=WORKERS
    )
    ok = all(
        r.violation_count == 0 and r.budget_exhausted == ()
        for r in (apt, emapt)
    )
    announce(13, "reach sweeps, zero inconclusive", ok)


def test_criterion_14_worker_determinism(announce, tmp_path):
    blobs = []
    for workers in ("1", "8"):
        for fmt in ("json", "csv", "text"):
            path = tmp_path / f"r{workers}.{fmt}"
            code = main([
                "verify", "--theorem", "covering", "--lo", "1", "--hi", "2000",
                "--workers", workers, "--format", fmt, "--output", str(path),
            ])
            assert code == 0
            blobs.append(path.read_bytes())
    one_worker, eight_workers = blobs[:3], blobs[3:]
    ok = one_worker == eight_workers
    ok = ok and json.loads(one_worker[0])["violation_count"] == "0"
    announce(14, "byte-identical reports at any worker count", ok)
