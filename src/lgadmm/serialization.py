"""Plain-text artifact formats and atomic file writes.

Matrices are exchanged as text: a header line ``rows cols`` followed by one
whitespace-separated row per line, every entry printed with 17 significant
digits so float64 values round-trip exactly. All writers go through a
temporary file in the destination directory plus an atomic rename, so
readers never observe a half-written artifact.
"""

from __future__ import annotations

import json
import os

import numpy as np

__all__ = [
    "format_float",
    "atomic_write_text",
    "atomic_write_json",
    "write_matrix",
    "read_matrix",
]


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and a rename.

    The temporary file is created under a fresh name by ``open(..., "x")``,
    so it gets the mode any new file gets, 0666 less the umask, and the
    process umask is never touched."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    handle = open(tmp_path, "x")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_json(path: str, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_matrix(path: str, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("only 2-d arrays are supported")
    rows, cols = matrix.shape
    lines = [f"{rows} {cols}"]
    for row in matrix:
        lines.append(" ".join(format_float(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix(path: str) -> np.ndarray:
    with open(path) as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise ValueError(f"malformed matrix header in {path}")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(handle, ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(
            f"matrix body in {path} has shape {data.shape}, header says ({rows}, {cols})")
    return data
