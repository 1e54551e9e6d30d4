import ctypes
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))


def _openblas(name: str, restype):
    """``name``'s result from the OpenBLAS that numpy loaded, text decoded,
    or "unknown" for a BLAS that lacks the call."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            call = getattr(ctypes.CDLL(str(path)), name)
        except (OSError, AttributeError):
            continue
        call.argtypes, call.restype = [], restype
        value = call()
        return value.decode() if isinstance(value, bytes) else value
    return "unknown"


def pytest_report_header(config):
    # the seeded digests depend on the BLAS kernel and are stated with BLAS
    # at one thread, so each run names both (OPENBLAS_CORETYPE overrides the
    # kernel OpenBLAS chose, OPENBLAS_NUM_THREADS the thread count)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        version = "unknown"
    core = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    threads = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return f"BLAS: {version}, core {core}, threads {threads}"
