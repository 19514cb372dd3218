"""Smoke test of the benchmark at tiny sizes.

    python -m pytest perfbench/test_smoke.py -q

Checks that every declared metric appears with its declared unit, that the
seed moves windows but never sizes, that a corrupted reference digest is
counted as failed invocations, and that the benchmark refuses to run in a
directory without the program.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

TINY = 0.01


def declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)[section]


def test_declared_workloads_match():
    assert [w["name"] for w in declared("workloads")] == list(run.WORKLOADS)


def test_seed_moves_windows_not_sizes():
    def shape(cmd):
        args = dict(zip(cmd.args[1::2], cmd.args[2::2]))
        if "--lo" in args:
            args["--lo"], args["--hi"] = None, int(args["--hi"]) - int(args["--lo"])
        args.pop("--start", None)
        return cmd.kind, sorted(args.items())

    for name in run.WORKLOADS:
        one, two = workloads.commands(name, 1, 2), workloads.commands(name, 2, 2)
        assert [shape(c) for c in one] == [shape(c) for c in two]
        assert one != two


@pytest.mark.parametrize("name", ["sweep", "frontier", "checkers", "tables"])
def test_end_to_end_metrics_and_units(name):
    record = run.measure(name, 3, 0.1, 0, TINY)
    for metric in declared("end_to_end"):
        assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert record["metrics"]["error_rate"] == {"value": 0.0, "unit": "ratio"}
    assert record["failed"] == 0
    assert record["attempted"] >= run.MIN_REPS * len(record["meta"]["inputs"])


def test_per_layer_metrics_and_units():
    record = run.measure("tables", 3, 0.1, 1, TINY)
    for metric in declared("per_layer"):
        assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert record["failed"] == 0
    assert record["spans"]


def test_corrupted_reference_digest_counts_as_failed(monkeypatch):
    real = run.take_reference

    def corrupted(*args):
        ref = real(*args)
        ref.digest = "0" * 64
        return ref

    monkeypatch.setattr(run, "take_reference", corrupted)
    record = run.measure("frontier", 3, 0.1, 0, TINY)
    assert record["failed"] >= run.MIN_REPS
    assert record["metrics"]["error_rate"]["value"] > 0
    assert record["metrics"]["success_rate"]["value"] < 1
    assert "differs from the --workers 1 reference" in record["failures"][0]


def test_command_prints_result_as_last_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checkers", "--seed", "5",
         "--seconds", "0.1", "--trace", "0", "--scale", str(TINY)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared("end_to_end"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
