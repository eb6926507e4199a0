"""Flat-text parameter checkpoints of the two-layer networks.

Layout: one header line with a model tag and its dimensions, then the
network's flat parameter buffer, one full-precision float per line.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .data import check_number_text, read_text_lines, repr_rows
from .errors import ParseError


def save_flat_params(path: str | Path, tag: str, dims: tuple[int, ...],
                     flat: np.ndarray) -> None:
    lines = [" ".join([tag] + [str(d) for d in dims]).encode(),
             *repr_rows(np.asarray(flat, dtype=np.float64).reshape(-1, 1))]
    Path(path).write_bytes(b"\n".join(lines) + b"\n")


def load_flat_params(path: str | Path, expected_tag: str) -> tuple[tuple[int, ...], np.ndarray]:
    """Read a checkpoint: its dimensions and its finite parameters as one flat array."""
    lines = read_text_lines(path)
    if not lines:
        raise ParseError("empty checkpoint")
    header = lines[0].split()
    if not header or header[0] != expected_tag:
        raise ParseError(f"expected {expected_tag!r} checkpoint", line=1)
    check_number_text(lines[0], line=1)
    try:
        dims = tuple(int(v) for v in header[1:])
    except ValueError as exc:
        raise ParseError(str(exc), line=1) from exc
    if any(d < 1 for d in dims):
        raise ParseError(f"checkpoint dimensions must be >= 1, got {dims}", line=1)
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        check_number_text(line, line=lineno)
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if not math.isfinite(values[-1]):
            raise ParseError("non-finite float value", line=lineno)
    return dims, np.asarray(values, dtype=np.float64)
