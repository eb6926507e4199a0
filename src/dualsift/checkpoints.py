"""Flat-text parameter checkpoints of the two-layer networks.

Layout: one header line with a model tag and its dimensions, then every
parameter in row-major order, one full-precision float per line.
"""
from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

from .data import repr_rows
from .errors import ParseError


def save_flat_params(path: str | Path, tag: str, dims: tuple[int, ...],
                     arrays: list[np.ndarray]) -> None:
    flat = np.concatenate([np.asarray(arr, dtype=np.float64).ravel() for arr in arrays])
    lines = [" ".join([tag] + [str(d) for d in dims]).encode(), *repr_rows(flat[:, None])]
    Path(path).write_bytes(b"\n".join(lines) + b"\n")


def load_flat_params(path: str | Path, expected_tag: str,
                     shapes_of: Callable) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Read a checkpoint; ``shapes_of(dims)`` gives the parameter shapes."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError("empty checkpoint")
    header = lines[0].split()
    if not header or header[0] != expected_tag:
        raise ParseError(f"expected {expected_tag!r} checkpoint", line=1)
    try:
        dims = tuple(int(v) for v in header[1:])
    except ValueError as exc:
        raise ParseError(str(exc), line=1) from exc
    if any(d < 1 for d in dims):
        raise ParseError(f"checkpoint dimensions must be >= 1, got {dims}", line=1)
    shapes = shapes_of(dims)
    expected = sum(int(np.prod(s)) for s in shapes)
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    if len(values) != expected:
        raise ParseError(f"expected {expected} parameters, got {len(values)}")
    flat = np.asarray(values, dtype=np.float64)
    arrays, offset = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        arrays.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return dims, arrays
