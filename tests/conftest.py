import ctypes
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))


def _openblas_core() -> str:
    """The kernel OpenBLAS chose when numpy loaded it (``OPENBLAS_CORETYPE``
    overrides the choice), or "unknown" for a BLAS that does not name it."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    # the seeded digests depend on the BLAS kernel, so each run names it
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        version = "unknown"
    return f"BLAS: {version}, core {_openblas_core()}"
