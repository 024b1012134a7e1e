"""The OpenBLAS kernel numpy's matrix products run on, named in the messages of pinned-value tests.

numpy's bundled OpenBLAS picks its kernels for the CPU when it loads, and other kernels round
some products differently in the last bits (ROADMAP item 21). The pinned parameter digests and
row bits were recorded on ``RECORDED_KERNEL``: a failure on another kernel is that known
dependence, not a regression.
"""

import ctypes
import functools
from pathlib import Path

import numpy as np

RECORDED_KERNEL = "SkylakeX"


@functools.cache
def openblas_kernel() -> str:
    """The core name numpy's bundled OpenBLAS reports, or ``"unknown"`` where no bundled library has the symbol."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def kernel_note() -> str:
    """What a pinned-value assertion message adds: the current kernel and the recording one."""
    return f"BLAS kernel {openblas_kernel()}; the pinned values were recorded on {RECORDED_KERNEL}"
