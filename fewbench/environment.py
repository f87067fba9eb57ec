"""What a result record says about the machine and the code it measured."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy


def _openblas():
    """(version string, thread count) of the OpenBLAS numpy links, or Nones
    when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return (lib.scipy_openblas_get_config64_().decode(),
                    int(lib.scipy_openblas_get_num_threads64_()))
        except (OSError, AttributeError):
            continue
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}", None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the measured package's source files, so a record names
    its code even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "fewdet").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def describe(root: Path) -> dict:
    blas_version, blas_threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "argv": sys.argv[1:],
    }
