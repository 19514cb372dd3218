import importlib.util
import pathlib
import shutil
import subprocess
import sysconfig

import pytest

TESTS_DIR = pathlib.Path(__file__).resolve().parent
DATA_DIR = TESTS_DIR / "data"
FAST_SOURCE = TESTS_DIR.parent / "src" / "collatz_lab" / "_fast.c"


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def fast(tmp_path_factory):
    """The compiled kernels, built from the committed C source into a temp dir.

    Loaded as ``collatz_lab._fast`` without entering ``sys.modules``, so the
    rest of the suite keeps the backend it started with.  Skips only when
    gcc or Python.h is missing; a failed compile fails the tests that use it.
    """
    gcc = shutil.which("gcc")
    include = pathlib.Path(sysconfig.get_paths()["include"])
    if gcc is None or not (include / "Python.h").is_file():
        pytest.skip("building the compiled kernels needs gcc and Python.h")
    target = tmp_path_factory.mktemp("fast") / (
        "_fast" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    proc = subprocess.run(
        [gcc, "-O1", "-shared", "-fPIC", f"-I{include}", str(FAST_SOURCE), "-o", str(target)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        pytest.fail(f"compiling {FAST_SOURCE.name} failed:\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("collatz_lab._fast", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
