"""Build and load the compiled window loops of :mod:`ivstream.estimators`.

``_windows.c`` is compiled with the system ``cc`` on the first use of a
window kernel (the harness's first window, or a regressor's first ``fit``)
and loaded with ctypes; importing ivstream never compiles. The build is
cached in ``~/.cache/ivstream`` under a hash of the source and the flags,
and renamed into place once complete, so a later process loads it without a
compiler; a new build removes the older builds beside it. The loops call the
scipy-openblas64 routines that numpy's own gufuncs call, found through
numpy's extension module when they are loaded, and libm's ``pow`` for the
steps of a regressor's ``fit``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_windows.c")

#: ``-ffp-contract=off``: a fused multiply-add would round differently from numpy.
#: ``-O3`` keeps the bits (``_windows.c`` says why); ``-ffast-math`` would not.
#: No ``-march=native``: the build key holds no CPU, so a build must not assume
#: the CPU it was made on.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
#: libm, for ``pow`` and the floating-point exception flags.
LIBS = ("-lm",)


def build(cache: Path) -> Path:
    """The compiled loops in ``cache``, compiled first unless this source with these flags was."""
    key = hashlib.sha256("\0".join((SOURCE.read_text(encoding="utf-8"), *CFLAGS, *LIBS)).encode()).hexdigest()
    target = cache / f"windows-{key[:16]}.so"
    if target.exists():
        return target
    cc = shutil.which("cc")
    if cc is None:
        raise RuntimeError("ivstream's window loops are compiled on first use, and there is no C compiler "
                           "'cc' on PATH")
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=target.name, suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([cc, *CFLAGS, "-o", tmp, str(SOURCE), *LIBS], capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"cc could not compile ivstream's window loops:\n{done.stderr}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # Older builds go; a build in progress is a ``*.tmp`` and stays. A process
    # that has loaded an old build keeps its mapping of the unlinked file.
    for old in cache.glob("windows-*.so"):
        if old != target:
            old.unlink(missing_ok=True)
    return target


@functools.cache
def loops() -> ctypes.CDLL:
    """The window loops, built into ``~/.cache/ivstream`` on the first call, on numpy's BLAS."""
    try:  # a library's handle also finds the symbols of the libraries it loaded
        numpy_lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        blas = [ctypes.cast(getattr(numpy_lib, f"scipy_cblas_{f}64_"), ctypes.c_void_p) for f in ("ddot", "dgemv")]
    except AttributeError:
        raise RuntimeError("ivstream's window loops need a numpy that bundles the scipy-openblas64 BLAS, "
                           f"as the numpy wheels do; numpy {np.__version__} here does not") from None
    lib = ctypes.CDLL(str(build(Path.home() / ".cache" / "ivstream")))
    n, p = ctypes.c_int64, ctypes.c_void_p
    lib.use_blas.argtypes, lib.use_blas.restype = (p, p), None
    lib.fit_steps.argtypes, lib.fit_steps.restype = (n, n, n, p, p), None
    lib.two_sample_window.argtypes = (n, n, n) + (p,) * 5
    lib.two_timescale_window.argtypes = (n,) * 5 + (ctypes.c_char_p,) + (p,) * 7
    lib.online_2sls_window.argtypes = (n,) * 4 + (p,) * 7
    for loop in (lib.two_sample_window, lib.two_timescale_window, lib.online_2sls_window):
        loop.restype = ctypes.c_int
    lib.use_blas(*blas)
    return lib
