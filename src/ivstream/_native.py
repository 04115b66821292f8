"""Build and load the compiled loops of :mod:`ivstream.estimators`, :mod:`ivstream.dgp`, :mod:`ivstream.harness`
and :mod:`ivstream.cli`.

``_windows.c`` is compiled with the system ``cc`` on the first draw of a
sample block, the first bind of a window loop (a harness group's first
block, or a regressor's first ``fit``) or the first CSV values formatted,
whichever comes first, and loaded
with ctypes; importing ivstream never compiles. It is compiled
for the CPU it runs on (``-march=native``), so the build is cached in
``~/.cache/ivstream`` under a hash of the source, the flags, the libraries
and the CPU (:func:`cpu`): a cache that two machines share never loads a
build made for the other. A build is renamed into place once complete, so a
later process loads it without a compiler; a new build removes the older
builds beside it. The loops and the checkpoint metrics call the
scipy-openblas64 routines that numpy's own gufuncs call, found through
numpy's extension module when they are loaded, for every product of more
than one term, and libm's ``pow`` for the steps of a regressor's ``fit``.
The sampler calls libm's ``exp`` and ``log1p``, the glibc functions numpy's
random module calls, which glibc resolves for the same CPU in both. The CSV
formatter ``shortest_reprs`` (:func:`reprs`) is integer arithmetic on the
power-of-five tables of :func:`pow5_tables`, which are computed here with
Python's exact integers and handed to the library once, on load, as numpy's
BLAS routines are.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_windows.c")

#: ``-ffp-contract=off``: a fused multiply-add would round differently from numpy.
#: ``-O3`` and ``-march=native`` keep the bits (``_windows.c`` says why);
#: ``-ffast-math`` would not. A build for the native CPU is keyed by :func:`cpu`.
CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")
#: libm, for ``pow``, ``exp``, ``log1p`` and the floating-point exception flags.
LIBS = ("-lm",)


def cpu() -> str:
    """This CPU, as the build key holds it: the machine and the feature flags ``-march=native`` compiles for."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            flags = next((line.strip() for line in info if line.startswith(("flags", "Features"))), "")
    except OSError:  # no /proc/cpuinfo outside Linux
        flags = ""
    return f"{platform.machine()} {flags or platform.processor()}"


def build(cache: Path) -> Path:
    """The compiled loops in ``cache``, compiled first unless this source with these flags was, for this CPU."""
    parts = (SOURCE.read_text(encoding="utf-8"), *CFLAGS, *LIBS, cpu())
    key = hashlib.sha256("\0".join(parts).encode()).hexdigest()
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
def loops(path: Path | None = None) -> ctypes.CDLL:
    """The window loops on numpy's BLAS: the build at ``path``, or by default the one in ``~/.cache/ivstream``,
    built on the first call."""
    try:  # a library's handle also finds the symbols of the libraries it loaded
        numpy_lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        blas = [ctypes.cast(getattr(numpy_lib, f"scipy_cblas_{f}64_"), ctypes.c_void_p) for f in ("ddot", "dgemv")]
    except AttributeError:
        raise RuntimeError("ivstream's window loops need a numpy that bundles the scipy-openblas64 BLAS, "
                           f"as the numpy wheels do; numpy {np.__version__} here does not") from None
    lib = ctypes.CDLL(str(path or build(Path.home() / ".cache" / "ivstream")))
    n, p = ctypes.c_int64, ctypes.c_void_p
    lib.use_blas.argtypes, lib.use_blas.restype = (p, p), None
    lib.fit_steps.argtypes, lib.fit_steps.restype = (n, n, n, p, p), None
    lib.standard_normals.argtypes, lib.standard_normals.restype = (p, n, p), None
    tail = (n, n, p, p)  # t0, rows, alphas, betas
    lib.two_sample_window.argtypes = (n, n) + (p,) * 4 + tail
    lib.two_timescale_window.argtypes = (n,) * 4 + (ctypes.c_char_p,) + (p,) * 5 + tail
    lib.online_2sls_window.argtypes = (n,) * 3 + (p,) * 7 + tail
    for loop in (lib.two_sample_window, lib.two_timescale_window, lib.online_2sls_window):
        loop.restype = ctypes.c_int
    # s, b, d_x, theta, theta_star, test_n, test_x, test_y, dist, mse, work, stride, col
    lib.checkpoint_metrics.argtypes, lib.checkpoint_metrics.restype = (n,) * 3 + (p, p, n) + (p,) * 5 + (n, n), n
    lib.use_pow5.argtypes, lib.use_pow5.restype = (p, p), None
    lib.shortest_reprs.argtypes, lib.shortest_reprs.restype = (n, p, p), n
    lib.use_blas(*blas)
    lib.pow5 = pow5_tables()  # the library reads them in place, so they live as long as it does
    lib.use_pow5(lib.pow5[:POW5_INV_ROWS].ctypes.data, lib.pow5[POW5_INV_ROWS:].ctypes.data)
    return lib


#: Rows of the tables of ``shortest_reprs``: a double is m * 2^e with e in [-1076, 969] in Ryū's
#: terms; e >= 0 reads the first at q = floor(log10(2^e)) - (e > 3) <= 290, e < 0 the second at
#: -e - q <= 325, with q = floor(log10(5^-e)) - (-e > 1).
POW5_INV_ROWS, POW5_ROWS = 291, 326
#: Bytes ``shortest_reprs`` may write per value: the longest repr, ``-2.2250738585072014e-308``, and a newline.
REPR_BYTES = 25


def pow5_tables() -> np.ndarray:
    """The 125-bit tables of ``shortest_reprs`` as (low, high) uint64 rows, computed exactly: the first
    ``POW5_INV_ROWS`` rows hold ``2**(bits(5**q) - 1 + 125) // 5**q + 1``, the next ``POW5_ROWS`` the top
    125 bits of ``5**i``, where ``bits`` is the bit length."""
    inv = [(1 << (5**q).bit_length() - 1 + 125) // 5**q + 1 for q in range(POW5_INV_ROWS)]
    pos = [(5**i << 125) >> (5**i).bit_length() for i in range(POW5_ROWS)]
    return np.array([(v & (2**64 - 1), v >> 64) for v in inv + pos], dtype=np.uint64)


def reprs(values: np.ndarray) -> list[str]:
    """``[repr(v) for v in values.ravel().tolist()]``, written by the compiled ``shortest_reprs``."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = np.empty(REPR_BYTES * values.size, dtype=np.uint8)
    size = loops().shortest_reprs(values.size, values.ctypes.data, out.ctypes.data)
    return out[:size].tobytes().decode("ascii").split()
