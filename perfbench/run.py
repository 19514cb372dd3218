"""Layered, seeded benchmark of the collatz-lab CLI.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a checkout.  Each run builds the package with the repo's
own ``setup.py build`` into ``.bench_build/perfbench`` and runs the CLI from
that build as subprocesses, one at a time, from this single process.

``--trace 0`` measures the workload's command list, repeated for
``--seconds``, and prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (``traced_cli.py``), attributes the wall time to
modules from the spans, and adds the in-process layer probes
(``layers.py``).  Every invocation passes a correctness gate: exit status,
the sha256 of stdout against a ``--workers 1`` reference, and the
independent oracles in ``oracles.py``.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
with quartiles, inputs, host facts and spans, goes to
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass

import layers
import oracles
import workloads
from spans import covered, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
PY = sys.executable
WORKLOADS = ("sweep", "frontier", "checkers", "tables")

SETUPS = 3           # builds per untraced run; setup_s is their median
MIN_REPS = 3         # passes over the command list, at least
IMPORT_REPS = 5
SCALING_PAIRS = 4    # conjecture-apt at --workers 1 and nproc, alternated
SCALING_SIZE = 40_000

#: (module, layer) that a span's self time is attributed to.  The layers are
#: start-up and import (cli), kernel, glue (Python work in the calling
#: module around and between kernel calls), fan-out, merge and emit.
SPAN_OWNER = {
    "cli.process": ("unattributed", "unattributed"),
    "cli.start": ("cli", "cli"),
    "cli.import": ("cli", "cli"),
    "cli.main": ("cli", "cli"),
    "verify.run_check": ("verify", "merge"),
    "sequences.stopping_stats": ("sequences", "merge"),
    "sequences.trace": ("sequences", "glue"),
    "reverse_tree.build_tree": ("reverse_tree", "glue"),
    "oeis.check_oeis": ("oeis", "glue"),
    "emit.emit": ("emit", "emit"),
    "parallel.run_chunked": ("parallel", "fanout"),
}
MODULES = ("cli", "kernels", "verify", "parallel", "sequences", "reverse_tree",
           "oeis", "emit", "unattributed")
LAYERS = ("cli", "kernel", "glue", "fanout", "merge", "emit", "unattributed")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Invocation:
    args: tuple
    start: float
    wall: float
    cpu: float
    rss_mb: float
    status: int
    digest: str
    out: bytes | None
    err: bytes


@dataclass
class Reference:
    digest: str
    items: int
    problem: str | None


class Gate:
    """Counts invocations and the reasons any of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, args, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{' '.join(args[1:])[:200]}: {problem}")

    def judge(self, inv: Invocation, ref: Reference) -> None:
        problem = None
        if inv.status != 0:
            problem = f"exit status {inv.status}: {inv.err.decode(errors='replace')[-300:]}"
        elif inv.digest != ref.digest:
            problem = "stdout differs from the --workers 1 reference"
        elif ref.problem:
            problem = ref.problem
        self.record(inv.args, problem)


def cli_env(lib: str) -> dict:
    """The caller's environment, minus COLLATZ_LAB_* overrides, on the build."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("COLLATZ_LAB_")}
    env["PYTHONPATH"] = lib
    return env


def invoke(argv, env, keep=False) -> Invocation:
    """Run one process to exit; time it from spawn, hash its stdout, and take
    its rusage (which covers the pool workers it reaped)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    digest = hashlib.sha256()
    chunks = []
    with proc.stdout, proc.stderr:
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(chunk)
            if keep:
                chunks.append(chunk)
        err = proc.stderr.read()
        _, wait_status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return Invocation(
        tuple(argv), start, wall, usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024, proc.returncode, digest.hexdigest(),
        b"".join(chunks) if keep else None, err,
    )


def cli_argv(cmd) -> list[str]:
    return [PY, "-m", "collatz_lab.cli", *cmd.args]


def setup_once(workdir: str, index: int) -> tuple[float, str, str]:
    """The repo's own build into a fresh directory, then a cold import."""
    base = os.path.join(workdir, f"build{index}")
    os.makedirs(base)
    t0 = time.perf_counter()
    subprocess.run(
        [PY, "setup.py", "-q", "egg_info", "--egg-base", base, "build", "--build-base", base],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    lib = os.path.join(base, "lib")
    backend = subprocess.run(
        [PY, "-c", "import collatz_lab.cli, collatz_lab; print(collatz_lab.BACKEND)"],
        cwd=ROOT, env=cli_env(lib), check=True, capture_output=True, text=True,
    ).stdout.strip()
    return time.perf_counter() - t0, lib, backend


def take_reference(cmd, env, gate, rng) -> Reference:
    """Run the command once at --workers 1 and check it against the oracles."""
    inv = invoke(cli_argv(cmd.with_workers(1)), env, keep=True)
    items, problem = 0, None
    if inv.status != 0:
        problem = f"reference exit status {inv.status}"
    else:
        try:
            items = oracles.CHECKS[cmd.kind](inv.out, cmd.check, rng)
        except oracles.OracleMismatch as exc:
            problem = f"oracle mismatch: {exc}"
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            problem = f"unparsable output: {exc!r}"
    gate.record(inv.args, problem)
    return Reference(inv.digest, items, problem)


def distribution(values) -> dict:
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def pass_over(cmds, refs, env, gate) -> list[Invocation]:
    invs = [invoke(cli_argv(c), env) for c in cmds]
    for inv, ref in zip(invs, refs):
        gate.judge(inv, ref)
    return invs


def traced_pass(cmds, refs, env, gate, workdir) -> tuple[float, list]:
    """One pass through traced_cli.py; returns its summed wall and the spans,
    rooted at a ``cli.process`` span per command taken from spawn to exit."""
    spans = []
    wall = 0.0
    path = os.path.join(workdir, "spans.json")
    for cmd, ref in zip(cmds, refs):
        inv = invoke([PY, os.path.join(HERE, "traced_cli.py"), path, "--", *cmd.args], env)
        gate.judge(inv, ref)
        wall += inv.wall
        with open(path, encoding="utf-8") as handle:
            traced = json.load(handle)
        base = len(spans)
        root = base + len(traced["spans"])
        for s in traced["spans"]:
            spans.append({**s, "id": base + s["id"],
                          "parent": root if s["parent"] is None else base + s["parent"]})
        spans.append({"id": root, "name": "cli.process", "start": inv.start,
                      "end": inv.start + inv.wall, "parent": None, "pid": None})
        spans.append({"id": root + 1, "name": "cli.start", "start": inv.start,
                      "end": traced["t_main"], "parent": root, "pid": None})
    return wall, spans


def attribute(spans, shares) -> tuple[dict, dict]:
    """Self time per module and per layer.  The time a run_chunked call's
    spans cover is split between the kernels and the calling module's glue
    by the bare-kernel share the probes measured for that span function."""
    own = self_times(spans)
    chunks = defaultdict(list)
    for s in spans:
        if s["name"].startswith("span:"):
            chunks[s["parent"]].append(s)
    modules = dict.fromkeys(MODULES, 0.0)
    layers_ = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if s["name"].startswith("span:"):
            continue
        module, layer = SPAN_OWNER[s["name"]]
        modules[module] += own[s["id"]]
        layers_[layer] += own[s["id"]]
        if s["id"] in chunks:
            name = chunks[s["id"]][0]["name"]
            busy = covered([(c["start"], c["end"]) for c in chunks[s["id"]]], s["start"], s["end"])
            kernel = busy * shares.get(name, 0.0)
            modules["kernels"] += kernel
            layers_["kernel"] += kernel
            modules[name.split(".")[1]] += busy - kernel
            layers_["glue"] += busy - kernel
    return modules, layers_


def import_modules(lib: str) -> types.SimpleNamespace:
    sys.path.insert(0, lib)
    from collatz_lab import arith, emit, kernels, oeis, parallel, reverse_tree, sequences, verify
    return types.SimpleNamespace(
        arith=arith, emit=emit, kernels=kernels, oeis=oeis, parallel=parallel,
        reverse_tree=reverse_tree, sequences=sequences, verify=verify,
    )


def cli_probes(m, env, gate, rng, scale) -> dict:
    """Interpreter start plus import, and CLI overhead over in-process work."""
    imports = [invoke([PY, "-c", "import collatz_lab.cli"], env) for _ in range(IMPORT_REPS)]
    for inv in imports:
        gate.record(inv.args, None if inv.status == 0 else f"exit status {inv.status}")
    lo, hi = workloads.window(rng, workloads.scaled(layers.STATS_PROBE, scale))
    cmd = workloads.stats_cmd(lo, hi, 1, "json")
    ref = take_reference(cmd, env, gate, rng)
    cli_walls = [inv.wall for inv in pass_over([cmd] * layers.REPS, [ref] * layers.REPS, env, gate)]

    def in_process():
        m.emit.emit(m.sequences.stopping_stats(lo, hi, layers.BUDGET, 1), "json", io.StringIO())

    inproc, _ = layers.median_time(in_process)
    return {
        "cli.import_s": (statistics.median(inv.wall for inv in imports), "s"),
        "cli.overhead_s": (statistics.median(cli_walls) - inproc, "s"),
    }


def scaling_probe(env, gate, rng, scale, workers) -> dict:
    """The same conjecture-apt window at --workers 1 and nproc, alternated.

    The CPU-time spread beside the wall-time spread tells host noise (both
    spread) from pool start-up or uneven spans (only the nproc wall spreads).
    """
    cmd = workloads.verify_cmd(
        "conjecture-apt", *workloads.window(rng, workloads.scaled(SCALING_SIZE, scale)), workers)
    ref = take_reference(cmd, env, gate, rng)
    runs = {"w1": [], "wn": []}
    for _ in range(SCALING_PAIRS):
        runs["w1"] += pass_over([cmd.with_workers(1)], [ref], env, gate)
        runs["wn"] += pass_over([cmd], [ref], env, gate)
    out = {}
    for label, invs in runs.items():
        for what, values in (("wall", [i.wall for i in invs]), ("cpu", [i.cpu for i in invs])):
            d = distribution(values)
            if what == "wall":
                out[f"parallel.{label}_wall_s"] = (d["median"], "s")
            out[f"parallel.{label}_{what}_iqr_frac"] = ((d["q3"] - d["q1"]) / d["median"], "frac")
    return out


def measure(name, seed, seconds, trace, scale=1.0) -> dict:
    """One benchmark run of one workload; returns the full record."""
    workers = nproc()
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "nproc": workers, "python": platform.python_version(),
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "loadavg_start": os.getloadavg(),
    }
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{os.getpid()}-{name}-{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        setups = [setup_once(workdir, i) for i in range(SETUPS if not trace else 1)]
        lib, meta["backend"] = setups[-1][1], setups[-1][2]
        env = cli_env(lib)
        cmds = workloads.commands(name, seed, workers, scale)
        meta["inputs"] = [list(c.args) for c in cmds]
        gate = Gate()
        rng = random.Random(f"oracle/{name}/{seed}")
        refs = [take_reference(c, env, gate, rng) for c in cmds]
        items = sum(r.items for r in refs)
        dist, metrics, extra = {}, {}, {}
        if not trace:
            reps = run_passes(seconds, lambda: pass_over(cmds, refs, env, gate))
            # Per-command medians, summed: a burst of host noise spoils one
            # invocation, not every pass it falls in.
            per_cmd = list(zip(*reps))
            dist["setup_s"] = distribution(s[0] for s in setups)
            dist["commands"] = [
                {"args": list(c.args), **{
                    what: distribution(getattr(i, what) for i in invs)
                    for what in ("wall", "cpu", "rss_mb")
                }}
                for c, invs in zip(cmds, per_cmd)
            ]
            wall = sum(d["wall"]["median"] for d in dist["commands"])
            metrics = {
                "setup_s": (dist["setup_s"]["median"], "s"),
                "wall_s": (wall, "s"),
                "items_per_s": (items / wall, "1/s"),
                "cpu_s": (sum(d["cpu"]["median"] for d in dist["commands"]), "s"),
                "rss_peak_mb": (max(d["rss_mb"]["median"] for d in dist["commands"]), "MB"),
            }
        else:
            m = import_modules(lib)
            metrics, shares = layers.run_probes(m, seed, scale, workers, ROOT)
            metrics.update(cli_probes(m, env, gate, rng, scale))
            metrics.update(scaling_probe(env, gate, rng, scale, workers))
            reps = run_passes(seconds, lambda: [
                sum(i.wall for i in pass_over(cmds, refs, env, gate)),
                traced_pass(cmds, refs, env, gate, workdir),
            ])
            dist["wall_s"] = distribution(r[0] for r in reps)
            dist["traced_wall_s"] = distribution(r[1][0] for r in reps)
            metrics["trace_overhead_frac"] = (
                dist["traced_wall_s"]["median"] / dist["wall_s"]["median"] - 1, "frac")
            attributed = [attribute(r[1][1], shares) for r in reps]
            for layer in LAYERS:
                metrics[f"attr.{layer}_s"] = (statistics.mean(a[1][layer] for a in attributed), "s")
            extra["attribution_by_module"] = {
                module: statistics.mean(a[0][module] for a in attributed) for module in MODULES
            }
            metrics["attr.traced_wall_s"] = (statistics.mean(r[1][0] for r in reps), "s")
            extra["spans"] = reps[len(reps) // 2][1][1]
            extra["kernel_shares"] = shares
        failed = len(gate.failures)
        metrics["success_rate"] = (1 - failed / gate.attempted, "ratio")
        metrics["error_rate"] = (failed / gate.attempted, "ratio")
        meta["loadavg_end"] = os.getloadavg()
        meta["passes"] = len(reps)
        return {
            "meta": meta, "items": items, "attempted": gate.attempted, "failed": failed,
            "failures": gate.failures[:20], "distributions": dist,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            **extra,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_passes(seconds, one_pass) -> list:
    """Repeat one_pass until the next one would overrun ``seconds``."""
    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append(one_pass())
        elapsed = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources and build files, which identifies the
    measured program when the checkout is not a git repository."""
    digest = hashlib.sha256()
    paths = ["setup.py", "pyproject.toml"]
    for folder, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        paths += sorted(os.path.relpath(os.path.join(folder, f), ROOT)
                        for f in files if not f.endswith(".pyc"))
    for path in paths:
        digest.update(path.encode())
        with open(os.path.join(ROOT, path), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def declared_metrics(trace: int) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(record: dict, names) -> None:
    meta = record["meta"]
    print(f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']} "
          f"backend={meta['backend']} nproc={meta['nproc']} python={meta['python']} "
          f"passes={meta['passes']} items={record['items']}")
    for name in names:
        metric = record["metrics"][name]
        line = f"{name:<45} {metric['value']:>14.6g} {metric['unit']}"
        d = record["distributions"].get(name)
        if d:
            line += f"  [q1 {d['q1']:.6g}, q3 {d['q3']:.6g}, n={d['n']}]"
        print(line)
    for d in record["distributions"].get("commands", ()):
        w = d["wall"]
        print(f"#   wall {w['median']:.4f} s [q1 {w['q1']:.4f}, q3 {w['q3']:.4f}, n={w['n']}]"
              f" cpu {d['cpu']['median']:.4f} s: {' '.join(d['args'])}")
    print(f"{'error_rate':<45} {record['metrics']['error_rate']['value']:>14.6g} ratio"
          f"  ({record['failed']} of {record['attempted']} invocations failed)")
    if "attribution_by_module" in record:
        print("# attribution of the traced wall time by module (s): " + ", ".join(
            f"{k} {v:.4g}" for k, v in record["attribution_by_module"].items()))
    for failure in record["failures"]:
        print(f"  failed: {failure}")


def save(record: dict) -> str:
    meta = record["meta"]
    folder = os.path.join(WORK, "results")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
                                f"-{int(time.time())}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload != "all":
        record = measure(args.workload, args.seed, args.seconds, args.trace, args.scale)
        names = declared_metrics(args.trace)
        report(record, names)
        print(f"# record: {save(record)}")
        print(json.dumps({
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: record["metrics"][n] for n in names},
        }))
        return 0

    records = []
    for trace in (0, 1):
        for name in WORKLOADS:
            records.append(measure(name, args.seed, args.seconds, trace, args.scale))
            report(records[-1], declared_metrics(trace))
            print(f"# record: {save(records[-1])}")
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            f"{r['meta']['workload']}.{n}": r["metrics"][n]
            for r in records for n in declared_metrics(r["meta"]["trace"])
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
