import importlib.util
import pathlib
import shutil
import subprocess
import sysconfig

import pytest

from collatz_lab import _pure

TESTS_DIR = pathlib.Path(__file__).resolve().parent
DATA_DIR = TESTS_DIR / "data"
FAST_SOURCE = TESTS_DIR.parent / "src" / "collatz_lab" / "_fast.c"
#: The flags of the build line in README "Install"; a C warning is an error.
GCC_FLAGS = ["-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC"]


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA_DIR


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
