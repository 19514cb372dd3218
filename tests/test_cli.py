"""CLI parsing, dispatch, output formats, exit codes, and doc examples."""

import ast
import contextlib
import csv
import importlib
import io
import json
import os
import pathlib
import shlex
import shutil
import signal
import subprocess
import sys
import time
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import given, strategies as st

import collatz_lab
import oracles
from collatz_lab import cli, emit, oeis, parallel, reverse_tree, sequences, verify
from collatz_lab.errors import ConfigurationError, DomainError
from collatz_lab.cli import main, parse_cli

ROOT = pathlib.Path(__file__).resolve().parent.parent

# every command shown in README.md; the docs test executes each one
README_COMMANDS = [
    "collatz-lab trace --kind A --start 7 --budget 100",
    "collatz-lab trace --kind U --start 20 --budget 100 --format csv",
    "collatz-lab trace --kind G --start 7 --param-a 3 --param-b 1 --budget 100 --format json",
    "collatz-lab verify --theorem covering --lo 1 --hi 10000 --budget 100000 --workers 4",
    "collatz-lab verify --theorem u-residues --lo 2 --hi 20000",
    "collatz-lab verify --theorem conjecture-apt --lo 1 --hi 5000 --format json",
    "collatz-lab tree --candidates 40 --depth 12 --format dot",
    "collatz-lab stats --lo 1 --hi 100 --format csv",
    "collatz-lab oeis-check --bfile tests/data/b001511.txt --generator ruler --count 10000",
]


# --- parsing ------------------------------------------------------------------


def test_parse_trace_defaults():
    config = parse_cli(["trace", "--kind", "A", "--start", "7"])
    assert config.command == "trace"
    assert config.kind == "A"
    assert config.start == 7
    assert config.budget == verify.DEFAULT_BUDGET
    assert config.format == "text"
    assert config.output is None
    assert config.workers == 1


def test_parse_verify_defaults():
    config = parse_cli(["verify", "--theorem", "p3n", "--lo", "0", "--hi", "9"])
    assert config.theorem == "p3n"
    assert (config.lo, config.hi) == (0, 9)
    assert config.max_violations == verify.DEFAULT_VIOLATION_CAP
    assert config.workers == 1


def test_parse_tree_and_oeis_defaults():
    tree = parse_cli(["tree"])
    assert (tree.candidates, tree.depth) == (100, 16)
    oeis = parse_cli(["oeis-check", "--bfile", "x", "--generator", "ruler"])
    assert oeis.count == 10_000


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--kind", "A", "--start", "7", "--format", "dot"],
        ["tree", "--format", "csv"],
        ["stats", "--lo", "1", "--hi", "5", "--format", "dot"],
        ["verify", "--theorem", "p3n", "--lo", "0", "--hi", "9", "--format", "dot"],
        ["oeis-check", "--bfile", "x", "--generator", "ruler", "--format", "dot"],
    ],
)
def test_format_rejected_per_command(argv):
    with pytest.raises(SystemExit) as exc:
        parse_cli(argv)
    assert exc.value.code == 2


def test_workers_env_override(monkeypatch):
    monkeypatch.setenv("COLLATZ_LAB_WORKERS", "6")
    config = parse_cli(
        ["verify", "--theorem", "p3n", "--lo", "0", "--hi", "9", "--workers", "2"]
    )
    assert config.workers == 6


@pytest.mark.parametrize("value", ["abc", "0", "-1", "-3", "1.5"])
def test_workers_env_invalid(monkeypatch, value):
    monkeypatch.setenv("COLLATZ_LAB_WORKERS", value)
    with pytest.raises(SystemExit) as exc:
        parse_cli(["verify", "--theorem", "p3n", "--lo", "0", "--hi", "9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["verify", "stats"])
@pytest.mark.parametrize("value", ["abc", "0", "-1", "-3", "1.5"])
def test_workers_flag_invalid(command, value):
    argv = [command, "--lo", "1", "--hi", "9", f"--workers={value}"]
    if command == "verify":
        argv += ["--theorem", "p3n"]
    assert main(argv) == 2


def test_main_usage_errors_exit_two():
    assert main([]) == 2
    assert main(["bogus"]) == 2
    assert main(["trace", "--kind", "Q", "--start", "1"]) == 2


# --- trace --------------------------------------------------------------------


def test_trace_csv_exact(capsys):
    assert main(["trace", "--kind", "U", "--start", "20",
                 "--budget", "100", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "step,value\n0,20\n1,8\n2,2\n"


def test_trace_json_decimal_strings(capsys):
    assert main(["trace", "--kind", "A", "--start", "7", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["elements"] == ["7", "26", "13", "20", "5", "8", "1"]
    assert payload["stopping_time"] == "6"
    assert payload["outcome"] == "reached-target"
    assert payload["start"] == "7"


def test_trace_text(capsys):
    assert main(["trace", "--kind", "A", "--start", "7"]) == 0
    out = capsys.readouterr().out
    assert "kind A from 7: reached-target" in out
    assert "stopping time: 6" in out


def test_trace_domain_error_exits_two(capsys):
    assert main(["trace", "--kind", "C", "--start", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_trace_generalized_requires_params(capsys):
    assert main(["trace", "--kind", "G", "--start", "7"]) == 2
    assert "--param-a" in capsys.readouterr().err
    assert main(["trace", "--kind", "H", "--start", "7",
                 "--param-a", "3", "--param-b", "1"]) == 0


# --- verify -------------------------------------------------------------------


def test_verify_clean_range(capsys):
    assert main(["verify", "--theorem", "p3n", "--lo", "0", "--hi", "2000"]) == 0
    captured = capsys.readouterr()
    assert "p3n over [0, 2000]: OK" in captured.out
    assert "checked 2001" in captured.err   # the report summary goes to stderr


def test_verify_u_residues_accepts_multiples_of_six(capsys):
    assert main(["verify", "--theorem", "u-residues", "--lo", "2", "--hi", "2000"]) == 0
    assert "violations 0" in capsys.readouterr().err


def _bad_span(lo, hi, budget):
    return hi - lo + 1, [(n, "synthetic") for n in range(lo, hi + 1)], []


def test_verify_violations_exit_one(monkeypatch, capsys):
    monkeypatch.setitem(
        verify.CHECKERS, "covering", verify.CheckerSpec(_bad_span, 1)
    )
    assert main(["verify", "--theorem", "covering", "--lo", "1", "--hi", "5"]) == 1
    assert "VIOLATIONS" in capsys.readouterr().out


def test_observational_violations_keep_exit_zero(monkeypatch, capsys):
    monkeypatch.setitem(
        verify.CHECKERS,
        "u-residues-odd-starts",
        verify.CheckerSpec(_bad_span, 1, observational=True),
    )
    assert main(["verify", "--theorem", "u-residues-odd-starts",
                 "--lo", "1", "--hi", "5"]) == 0
    assert "observational" in capsys.readouterr().out


def _crashing_span(lo, hi, budget):
    raise RuntimeError("synthetic crash")


_TEST_PID = os.getpid()


def _worker_killing_span(lo, hi, budget):
    if os.getpid() == _TEST_PID:
        time.sleep(0.2)   # so that a child is sure to claim a span
        return hi - lo + 1, [], []
    os.kill(os.getpid(), signal.SIGKILL)   # a child dies mid-span


def _worker_domain_error_span(lo, hi, budget):
    if os.getpid() == _TEST_PID:
        time.sleep(0.2)   # so that a child is sure to claim a span
        return hi - lo + 1, [], []
    raise DomainError("synthetic domain error")


def test_crashed_span_exits_three(monkeypatch, capsys):
    monkeypatch.setitem(
        verify.CHECKERS, "covering", verify.CheckerSpec(_crashing_span, 1)
    )
    assert main(["verify", "--theorem", "covering", "--lo", "1", "--hi", "5",
                 "--workers", "1"]) == 3
    assert "internal error: RuntimeError: synthetic crash" in capsys.readouterr().err


def test_dead_pool_worker_exits_three(monkeypatch, capsys, eight_cpus):
    monkeypatch.setitem(
        verify.CHECKERS, "covering", verify.CheckerSpec(_worker_killing_span, 1)
    )
    assert main(["verify", "--theorem", "covering", "--lo", "1", "--hi", "100",
                 "--workers", "2"]) == 3
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: worker process" in err
    assert "died without its results (exit status -9)" in err


def test_worker_domain_error_exits_two_as_in_process(monkeypatch, capsys, eight_cpus):
    monkeypatch.setitem(
        verify.CHECKERS, "covering", verify.CheckerSpec(_worker_domain_error_span, 1)
    )
    assert main(["verify", "--theorem", "covering", "--lo", "1", "--hi", "100",
                 "--workers", "2"]) == 2
    assert capsys.readouterr().err == "error: synthetic domain error\n"


def test_verify_bad_range_exits_two(capsys):
    assert main(["verify", "--theorem", "p3n", "--lo", "9", "--hi", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_max_violations_caps_listing(monkeypatch, capsys):
    monkeypatch.setitem(
        verify.CHECKERS, "covering", verify.CheckerSpec(_bad_span, 1)
    )
    assert main(["verify", "--theorem", "covering", "--lo", "1", "--hi", "50",
                 "--max-violations", "3", "--format", "csv"]) == 1
    out = capsys.readouterr().out
    assert out == "input,detail\n1,synthetic\n2,synthetic\n3,synthetic\n"


def test_verify_csv_lists_exhausted_inputs(capsys):
    assert main(["verify", "--theorem", "conjecture-apt", "--lo", "1", "--hi", "9",
                 "--budget", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "input,detail\n"
        "3,budget exhausted\n"
        "5,budget exhausted\n"
        "6,budget exhausted\n"
        "7,budget exhausted\n"
        "9,budget exhausted\n"
    )


# --- tree ---------------------------------------------------------------------


def test_tree_dot_output(capsys):
    assert main(["tree", "--candidates", "20", "--depth", "12",
                 "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph reverse_tree {")
    assert "  7 -> 13;" in out
    assert "  1 -> 1 [style=dashed, color=gray];" in out
    assert "style=dotted" in out   # orphans are drawn detached


def test_tree_json_output(capsys):
    assert main(["tree", "--candidates", "12", "--depth", "8",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["root"] == {"w": "1", "z": "2"}
    assert payload["nodes"][0]["children"] == ["1", "5"]


# --- stats --------------------------------------------------------------------


def test_stats_csv_exact(capsys):
    assert main(["stats", "--lo", "1", "--hi", "5", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "n,c_len,t_len,a_len,exhausted\n"
        "1,1,1,1,false\n"
        "2,2,2,2,false\n"
        "3,8,6,3,false\n"
        "4,3,3,2,false\n"
        "5,6,5,3,false\n"
    )


def test_stats_exhausted_row_leaves_blanks(capsys):
    assert main(["stats", "--lo", "7", "--hi", "7", "--budget", "3",
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "n,c_len,t_len,a_len,exhausted\n7,,,,true\n"
    )


# --- oeis-check ---------------------------------------------------------------


def test_oeis_check_fixture(capsys, data_dir):
    bfile = str(data_dir / "b025480.txt")
    assert main(["oeis-check", "--bfile", bfile, "--generator", "interleave_p",
                 "--count", "1000"]) == 0
    assert "oeis-A025480-interleave_p" in capsys.readouterr().out


def test_oeis_check_divergent_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "b.txt"
    bad.write_text("1 1\n2 5\n3 1\n")
    assert main(["oeis-check", "--bfile", str(bad), "--generator", "ruler",
                 "--count", "3", "--format", "csv"]) == 1
    # the detail holds a comma, so CSV quotes it
    assert capsys.readouterr().out == 'input,detail\n2,"file has 5, generator gives 2"\n'


def test_oeis_check_missing_file_exits_two(capsys):
    assert main(["oeis-check", "--bfile", "/no/such/file",
                 "--generator", "ruler"]) == 2
    assert "error:" in capsys.readouterr().err


def test_oeis_check_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "b.txt"
    bad.write_text("1 one\n")
    assert main(["oeis-check", "--bfile", str(bad), "--generator", "ruler",
                 "--count", "1"]) == 2
    assert "line 1" in capsys.readouterr().err


# --- sinks and determinism ------------------------------------------------------


def test_output_file_matches_stdout(tmp_path, capsys):
    argv = ["trace", "--kind", "A", "--start", "27", "--format", "json"]
    assert main(argv) == 0
    stdout_bytes = capsys.readouterr().out
    out_file = tmp_path / "trace.json"
    assert main(argv + ["--output", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_text() == stdout_bytes


@pytest.mark.parametrize(
    "result,fmt",
    [
        (object(), "json"),
        (object(), "text"),
        (sequences.trace("A", 7, 100), "dot"),
        (reverse_tree.build_tree(5, 3), "csv"),
        (sequences.trace("A", 7, 100), "xml"),
    ],
    ids=["object-json", "object-text", "trace-dot", "tree-csv", "trace-xml"],
)
def test_emit_rejects_unknown_types_and_formats(result, fmt):
    with pytest.raises(ConfigurationError):
        emit.emit(result, fmt, io.StringIO())


class _CountingSink(io.StringIO):
    """A text sink that records how many writes reach it, and the longest."""

    writes = 0
    longest = 0

    def write(self, text):
        self.writes += 1
        self.longest = max(self.longest, len(text))
        return super().write(text)


def _csv_oracle_bytes(result) -> str:
    sink = io.StringIO()
    csv.writer(sink, lineterminator="\n").writerows(oracles.csv_rows(result))
    return sink.getvalue()


#: Per format, the bytes the oracles in tests/oracles.py give: the standard
#: library writes the JSON and the CSV, and stays the reference for both.
ORACLE_BYTES = {
    "json": lambda result: json.dumps(oracles.to_jsonable(result), indent=2) + "\n",
    "text": lambda result: "\n".join(oracles.text_lines(result)) + "\n",
    "dot": lambda result: "\n".join(oracles.dot_lines(result)) + "\n",
    "csv": _csv_oracle_bytes,
}


@pytest.mark.parametrize(
    "result",
    [
        sequences.trace("A", 27, 1000),
        verify.run_check("covering", 1, 50),
        sequences.stopping_stats(1, 50, 8),
        reverse_tree.build_tree(40, 8),
    ],
    ids=["trace", "report", "stats", "tree"],
)
def test_emit_json_bytes(result):
    sink = io.StringIO()
    emit.emit(result, "json", sink)
    assert sink.getvalue() == json.dumps(oracles.to_jsonable(result), indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["json", "text", "dot", "csv"])
def test_emit_batches_writes(fmt):
    # A tree has no CSV form; a stats table of 20,000 rows writes about 400 KB.
    if fmt == "csv":
        result = sequences.stopping_stats(1, 20_000, 1000)
    else:
        result = reverse_tree.build_tree(12_000, 40)
    sink = _CountingSink()
    emit.emit(result, fmt, sink)
    size = len(sink.getvalue())
    assert sink.getvalue() == ORACLE_BYTES[fmt](result)
    assert 1 < sink.writes <= -(-size // 65536) + 1
    assert sink.longest <= 65536 + max(map(len, emit._writer(result, fmt)(result)))


class _ClosedPipe(io.StringIO):
    """A sink whose reader goes away after the first write."""

    writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [["tree", "--candidates", "12000", "--depth", "40", "--format", fmt]
     for fmt in ("text", "json", "dot")]
    + [["stats", "--lo", "1", "--hi", "5000", "--format", fmt]
       for fmt in ("text", "json", "csv")],
    ids=lambda argv: f"{argv[0]}-{argv[-1]}",
)
def test_closed_pipe_exits_two(capsys, argv):
    sink = _ClosedPipe()
    with contextlib.redirect_stdout(sink):
        assert main(argv) == 2
    assert sink.writes == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


# Integers past 2**64, as orbit elements and bigint windows have.
_INTS = st.integers(min_value=0, max_value=2**300)
_LENGTHS = st.none() | _INTS


def _tuples(elements):
    return st.lists(elements, max_size=5).map(tuple)


@st.composite
def _trees(draw):
    ws = draw(st.lists(_INTS, min_size=1, max_size=6, unique=True))
    nodes = tuple(reverse_tree.WZNode(w, draw(_INTS)) for w in ws)
    return reverse_tree.WZTree(
        root=nodes[0],
        candidate_bound=draw(_INTS),
        depth_bound=draw(_INTS),
        nodes=nodes,
        depths={w: draw(st.integers(0, 60)) for w in ws},
        # a node missing from children and one with no children both write []
        children={w: draw(_tuples(_INTS)) for w in ws if draw(st.booleans())},
        # a parent equal to its node is drawn as the root's self-loop
        parents={w: draw(st.just(w) | _INTS) for w in ws},
        orphans=draw(_tuples(st.builds(reverse_tree.Orphan, _INTS, _INTS))),
    )


RESULTS = {
    "trace": st.builds(
        sequences.Trace, st.sampled_from(sequences.TRACE_KINDS), _INTS,
        _tuples(_INTS), st.sampled_from(sequences.Outcome), _LENGTHS,
    ),
    "report": st.builds(
        verify.TheoremReport, st.text(), _INTS, _INTS, _INTS,
        _tuples(st.builds(verify.Violation, _INTS, st.text())), _INTS,
        _tuples(_INTS), st.booleans(),
    ),
    "stats": st.builds(
        sequences.StatsTable, _INTS, _INTS, _INTS,
        _tuples(st.builds(sequences.StatsRow, _INTS, _LENGTHS, _LENGTHS,
                          _LENGTHS, st.booleans())),
    ),
    "tree": _trees(),
}


def _bytes(result, fmt: str) -> str:
    sink = io.StringIO()
    emit.emit(result, fmt, sink)
    return sink.getvalue()


@pytest.mark.parametrize("kind", RESULTS)
@given(data=st.data())
def test_json_writer_matches_oracle(kind, data):
    result = data.draw(RESULTS[kind])
    for fmt in emit.formats(type(result)):
        assert _bytes(result, fmt) == ORACLE_BYTES[fmt](result)


@pytest.mark.parametrize(
    "result",
    [
        sequences.trace("A", 27, 3),
        verify.TheoremReport(
            "u-residues-odd-starts", 1, 9, 5,
            (verify.Violation(7, "element 22 is not 2 or 8 mod 18"),), 1, (3, 9), True,
        ),
        # CSV quotes a detail that holds a comma, a quote or a newline, not a lone \r
        verify.TheoremReport(
            "dual-forms", 1, 9, 5,
            tuple(verify.Violation(n, detail) for n, detail in enumerate(
                ["a, b", 'say "x"', "lf\nline", "cr\ronly", "crlf\r\n", "", "plain"])),
            7, (), False,
        ),
        reverse_tree.build_tree(7, 5),
        reverse_tree.build_tree(5, 0),
    ],
    ids=["trace-no-stopping-time", "observational-report", "quoted-details",
         "tree-no-orphans", "tree-depth-0"],
)
def test_writers_match_oracles_at_the_edges(result):
    for fmt in emit.formats(type(result)):
        assert _bytes(result, fmt) == ORACLE_BYTES[fmt](result)


@pytest.mark.parametrize(
    "text",
    [
        "",
        'quote " backslash \\ slash /',
        "".join(map(chr, range(0x20))),
        "\x7f",
        "caf\u00e9 na\u00efve \u00ff\u0100",
        "line \u2028 paragraph \u2029",
        "astral \U0001f600 \U0010ffff",
    ],
    ids=["empty", "escapes", "controls", "del", "non-ascii", "line-separator", "astral"],
)
def test_json_writer_escapes_strings(text):
    report = verify.TheoremReport(
        text, 1, 2**70, 3, (verify.Violation(2**70, text),), 1, (), False
    )
    out = _bytes(report, "json")
    assert out == json.dumps(oracles.to_jsonable(report), indent=2) + "\n"
    assert out.isascii()


def test_fixed_strings_need_no_json_escaping():
    # The writers put trace kinds and outcomes between quotes as they are.
    for text in sequences.TRACE_KINDS + tuple(o.value for o in sequences.Outcome):
        assert encode_basestring_ascii(text) == f'"{text}"'


def test_unwritable_sink_exits_two(tmp_path, capsys):
    assert main(["trace", "--kind", "A", "--start", "7",
                 "--output", str(tmp_path)]) == 2
    assert "cannot write output" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_verify_bytes_identical_across_worker_counts(tmp_path, fmt, eight_cpus):
    files = []
    for workers in ("1", "8"):
        path = tmp_path / f"report-{workers}.{fmt}"
        argv = ["verify", "--theorem", "covering", "--lo", "1", "--hi", "500",
                "--workers", workers, "--format", fmt, "--output", str(path)]
        assert main(argv) == 0
        files.append(path)
    assert files[0].read_bytes() == files[1].read_bytes()


def test_stats_bytes_identical_across_worker_counts(tmp_path, monkeypatch, eight_cpus):
    paths = []
    for workers in ("1", "6"):
        monkeypatch.setenv("COLLATZ_LAB_WORKERS", workers)
        path = tmp_path / f"stats-{workers}.csv"
        assert main(["stats", "--lo", "1", "--hi", "300", "--format", "csv",
                     "--output", str(path)]) == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# --- benchmark hooks ------------------------------------------------------------

# The traced benchmark (perfbench/traced_cli.py) wraps these module attributes
# after importing the CLI, so the CLI must look each one up at call time.
HOOKS = [
    (verify, "run_check"),
    (sequences, "stopping_stats"),
    (sequences, "trace"),
    (reverse_tree, "build_tree"),
    (oeis, "check_oeis"),
    (emit, "emit"),
    (parallel, "run_chunked"),
]

HOOKED_COMMANDS = {
    "trace": (["trace", "--kind", "A", "--start", "7"], {"sequences.trace"}),
    "verify": (["verify", "--theorem", "p3n", "--lo", "0", "--hi", "9"],
               {"verify.run_check", "parallel.run_chunked"}),
    "tree": (["tree", "--candidates", "5"], {"reverse_tree.build_tree"}),
    "stats": (["stats", "--lo", "1", "--hi", "5"],
              {"sequences.stopping_stats", "parallel.run_chunked"}),
    "oeis-check": (["oeis-check", "--generator", "ruler", "--count", "10"],
                   {"oeis.check_oeis"}),
}


@pytest.mark.parametrize("command", HOOKED_COMMANDS)
def test_cli_reaches_benchmark_hooks(command, monkeypatch, data_dir):
    calls = []

    def spy(label, real):
        def wrapper(*args, **kwargs):
            calls.append(label)
            return real(*args, **kwargs)
        return wrapper

    for module, attr in HOOKS:
        label = f"{module.__name__.removeprefix('collatz_lab.')}.{attr}"
        monkeypatch.setattr(module, attr, spy(label, getattr(module, attr)))
    argv, expected = HOOKED_COMMANDS[command]
    if command == "oeis-check":
        argv = argv + ["--bfile", str(data_dir / "b001511.txt")]
    assert main(argv) == 0
    assert set(calls) == expected | {"emit.emit"}


# --- imports and exports --------------------------------------------------------


def _loaded_modules(code: str) -> set[str]:
    """The names in sys.modules after code runs in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "COLLATZ_LAB_WORKERS"}
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _cli_code(argv: list[str]) -> str:
    return (
        "import contextlib, io\n"
        "from collatz_lab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )


#: A fork pool loads pickle for its results; a run in one process loads none of these.
POOL_MODULES = {"concurrent.futures.process", "multiprocessing", "pickle"}
#: Loaded by none of these runs: no result type is a dataclass, none of the
#: runs builds a Fraction, emit writes CSV without `csv`, and none writes a
#: report as JSON.
NEVER = {"dataclasses", "inspect", "fractions", "csv", "json"}

# What each run must not load: a command imports only its own modules, and
# a run in one process loads nothing a pool needs.
IMPORT_BUDGETS = {
    "trace": (_cli_code(["trace", "--kind", "A", "--start", "7"]),
              {"collatz_lab.verify", "collatz_lab.reverse_tree", "collatz_lab.oeis"}
              | NEVER),
    "tree": (_cli_code(["tree", "--candidates", "20"]),
             {"collatz_lab.sequences", "collatz_lab.verify"} | NEVER),
    "verify": (_cli_code(["verify", "--theorem", "p3n", "--lo", "0", "--hi", "99",
                          "--workers", "1"]),
               POOL_MODULES | NEVER),
    # Its span is one kernel call: no inverse step, so no reverse_tree.
    "linear-fixed-point": (_cli_code(["verify", "--theorem", "linear-fixed-point", "--lo",
                                      "2", "--hi", "999", "--workers", "1"]),
                           {"collatz_lab.reverse_tree"} | POOL_MODULES | NEVER),
    "stats": (_cli_code(["stats", "--lo", "1", "--hi", "50"]), POOL_MODULES | NEVER),
    "stats-csv": (_cli_code(["stats", "--lo", "1", "--hi", "50", "--format", "csv"]),
                  POOL_MODULES | NEVER),
    # Its exhausted inputs give the CSV rows to write.
    "verify-csv": (_cli_code(["verify", "--theorem", "conjecture-apt", "--lo", "1", "--hi",
                              "9", "--budget", "1", "--workers", "1", "--format", "csv"]),
                   POOL_MODULES | NEVER),
    "oeis-check": (_cli_code(["oeis-check", "--generator", "w_candidate", "--count", "50",
                              "--bfile", str(ROOT / "tests/data/b007310.txt")]),
                   {"collatz_lab.sequences"} | NEVER),
    "kernels": ("import collatz_lab.kernels",
                {"collatz_lab.reverse_tree", "collatz_lab.verify", "collatz_lab.oeis"}
                | NEVER),
}


@pytest.mark.parametrize("case", IMPORT_BUDGETS)
def test_run_imports_only_what_it_needs(case):
    code, absent = IMPORT_BUDGETS[case]
    assert absent & _loaded_modules(code) == set()


def test_no_module_imports_a_process_pool():
    # run_chunked forks its own children; an executor's import and start
    # cost a sweep more than the fork does.  emit writes CSV itself, through
    # the batch loop every format shares.
    for path in sorted((ROOT / "src" / "collatz_lab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("concurrent", "multiprocessing", "csv"), (
                    path.name, name)


#: A CLI run at --workers 2 on eight CPUs (as `eight_cpus` reports them),
#: whose children die mid-span when argv[1] is "dies"; it exits with the
#: CLI's status, or 99 when a child is left running or unreaped.
_CHILDLESS_RUN = """
import os, signal, sys, time
from collatz_lab import cli, parallel, verify

parallel.os.sched_getaffinity = lambda pid: set(range(8))
PARENT = os.getpid()

def span(lo, hi, budget):
    if os.getpid() == PARENT:
        time.sleep(0.2)
        return hi - lo + 1, [], []
    os.kill(os.getpid(), signal.SIGKILL)

if sys.argv[1] == "dies":
    verify.CHECKERS["covering"] = verify.CheckerSpec(span, 1)
status = cli.main(["verify", "--theorem", "covering", "--lo", "1", "--hi", "2000",
                   "--workers", "2"])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(status)
sys.exit(99)
"""


@pytest.mark.parametrize("case,status", [("runs", 0), ("dies", 3)])
def test_cli_leaves_no_child_process(case, status):
    # A descendant left behind would also hold the output pipes open, and
    # the run would time out.
    proc = subprocess.run([sys.executable, "-c", _CHILDLESS_RUN, case],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == status, proc.stderr


def test_package_exports_resolve_to_their_home_objects():
    for name in collatz_lab.__all__:
        home = importlib.import_module(f"collatz_lab.{collatz_lab._HOME[name]}")
        assert getattr(collatz_lab, name) is getattr(home, name), name
    namespace: dict = {}
    exec("from collatz_lab import *", namespace)
    for name in collatz_lab.__all__:
        assert namespace[name] is getattr(collatz_lab, name), name
    assert collatz_lab.BACKEND in ("pure-python", "compiled")
    with pytest.raises(AttributeError):
        collatz_lab.no_such_export
    assert not hasattr(collatz_lab, "no_such_export")


def test_records_are_immutable_tuples():
    # Every result and parameter type is a NamedTuple: no instance dict, and
    # setting a field raises AttributeError.
    g = sequences.GParams(a=5, b=3)
    records = [
        g, sequences.parity_flip(7, g), sequences.trace("A", 7, 10),
        sequences.stopping_stats(1, 3, 10), reverse_tree.AffineStep(alpha=1, beta=2),
        reverse_tree.compose_path([(1, 1)]), reverse_tree.build_tree(5, 2),
        reverse_tree.cycle_scan(5, 5), oeis.GENERATORS["ruler"],
    ]
    for record in records:
        assert isinstance(record, tuple) and not hasattr(record, "__dict__"), record
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)


# --- documentation examples -----------------------------------------------------


def test_readme_lists_every_command():
    readme = (ROOT / "README.md").read_text()
    for command in README_COMMANDS:
        assert command in readme, f"README missing: {command}"


@pytest.mark.parametrize("command", README_COMMANDS, ids=range(len(README_COMMANDS)))
def test_readme_commands_run_clean(command, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(command)[1:]
    assert main(argv) == 0


def test_console_script_entry_point():
    exe = shutil.which("collatz-lab")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "trace", "--kind", "U", "--start", "20", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "step,value\n0,20\n1,8\n2,2\n"
