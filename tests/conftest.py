import ctypes
import platform
import shutil
import subprocess

import numpy as np
import pytest

from ivstream import _native

ACCEPTANCE_LINES: list[str] = []


def make_rng(seed: int = 12345) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@pytest.fixture
def rng():
    return make_rng()


@pytest.fixture(scope="session")
def no_avx512_build(tmp_path_factory) -> ctypes.CDLL:
    """``_windows.c`` built with ``-mno-avx512f``, so without its AVX-512 paths whatever this CPU has."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler 'cc' on PATH")
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("-mno-avx512f is an x86 flag")
    lib_path = tmp_path_factory.mktemp("no_avx512") / "windows-no-avx512.so"
    subprocess.run(["cc", *_native.CFLAGS, "-mno-avx512f", "-o", str(lib_path), str(_native.SOURCE), *_native.LIBS],
                   check=True, capture_output=True)
    return ctypes.CDLL(str(lib_path))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
