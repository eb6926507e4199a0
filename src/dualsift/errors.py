"""Exception types shared across the package."""
from __future__ import annotations


class ParseError(Exception):
    """Sample-table or partition file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NoCenter(Exception):
    """A class center was requested for an empty cluster."""


class DegenerateFit(Exception):
    """Too few or constant values; a two-component mixture cannot be fit."""


class MetaStarved(Exception):
    """The certain set lacks positives or negatives; no meta training data."""


class NumericalError(Exception):
    """A training loop produced a non-finite loss or diverged activations."""
