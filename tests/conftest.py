import importlib.util
import os
import pathlib
import random
import shutil
import subprocess
import sysconfig

import pytest

from collatz_lab import _pure, parallel

TESTS_DIR = pathlib.Path(__file__).resolve().parent
DATA_DIR = TESTS_DIR / "data"
FAST_SOURCE = TESTS_DIR.parent / "src" / "collatz_lab" / "_fast.c"
#: The flags of the build line in README "Install"; a C warning is an error.
GCC_FLAGS = ["-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC"]

SAFE3 = (2**64 - 2) // 3       # 3n + 1 fits for n up to this
#: Starts on each side of the compiled kernels' uint64 cutoffs, and bigints.
BOUNDARY = [
    1, 2, 3, 63, 64, 65,
    2**31 - 1, 2**32, 2**62 - 1, 2**62, 2**63 - 1, 2**63,
    SAFE3 - 1, SAFE3, SAFE3 + 1,
    2**64 - 2, 2**64 - 1, 2**64, 2**64 + 1,
    3**40, 3**50, 2**200 - 1, 2**200,
]
#: Random starts that cross 2**64 on purpose.
_rng = random.Random(20260814)
RANDOMS = [_rng.randrange(1, 2**70) for _ in range(400)]
#: Budgets below, at and past the long long range the compiled module takes.
BIG_BUDGETS = (2**63 - 1, 2**63, 2**64, -(2**63) - 1)


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA_DIR


@pytest.fixture
def eight_cpus(monkeypatch):
    """`parallel.run_chunked` may run on eight CPUs, so a call with two or
    more workers and a second span forks on any machine."""
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)


@pytest.fixture(autouse=True)
def no_child_left():
    """No test leaves a child process behind, running or unreaped:
    `run_chunked` reaps every child it forks, on every path."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def build_fast(source: pathlib.Path, directory: pathlib.Path):
    """The module compiled from the C file `source` into `directory`.

    Built with README's gcc line and loaded as ``collatz_lab._fast`` without
    entering ``sys.modules``, so `kernels` keeps the backend it finds in the
    package, whenever it is imported.  Skips only when gcc or Python.h is
    missing; a failed compile, or a warning, fails the test.
    """
    gcc = shutil.which("gcc")
    include = pathlib.Path(sysconfig.get_paths()["include"])
    if gcc is None or not (include / "Python.h").is_file():
        pytest.skip("building the compiled kernels needs gcc and Python.h")
    target = directory / ("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [gcc, *GCC_FLAGS, f"-I{include}", str(source), "-o", str(target)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        pytest.fail(f"compiling {source.name} failed:\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("collatz_lab._fast", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def fast(tmp_path_factory):
    """The compiled kernels, built from the committed C source by `build_fast`."""
    return build_fast(FAST_SOURCE, tmp_path_factory.mktemp("fast"))


@pytest.fixture(scope="session", params=["pure", "compiled"])
def impl(request):
    """Each kernel backend in turn: `_pure`, then the module `fast` built.

    The compiled case skips exactly when `fast` does.  Session-scoped, so
    hypothesis tests can take it.
    """
    if request.param == "pure":
        return _pure
    return request.getfixturevalue("fast")
