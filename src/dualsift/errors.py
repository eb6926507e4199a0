"""Exception types shared across the package."""
from __future__ import annotations


class ParseError(Exception):
    """A sample table, partition file or checkpoint could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateFit(Exception):
    """Too few or constant values; a two-component mixture cannot be fit."""


class MetaStarved(Exception):
    """The certain set lacks positives or negatives; no meta training data."""


class NumericalError(Exception):
    """A training loop overflowed, turned invalid or diverged activations."""


class FieldError(ValueError):
    """A config object's field or a function's argument lies out of range.

    ``owner`` is the config class or the function, ``field`` the field's or
    argument's name and ``detail`` the requirement plus the value given; the
    message reads ``<field> <detail>``.
    """

    def __init__(self, owner, field: str, detail: str):
        self.owner, self.field, self.detail = owner, field, detail
        super().__init__(f"{field} {detail}")


def check_fields(obj, names: tuple[str, ...], ok, requirement: str) -> None:
    """Raise FieldError for the first of ``names`` whose value fails ``ok``."""
    for name in names:
        value = getattr(obj, name)
        if not ok(value):
            raise FieldError(type(obj), name, f"{requirement}, got {value}")
