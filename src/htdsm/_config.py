"""The JSON format of every config dataclass: fields in declaration order,
nested configs as objects, tuples as lists. Loading is strict, since a
misspelled key would otherwise be dropped and its field silently keep the
default; omitted keys keep theirs, and each `__post_init__` turns lists
back into tuples through `check_list` and checks its fields: integer ones
through `check_int`, real ones through `check_real`, which both refuse
bools and strings.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import fields
from typing import get_args, get_type_hints


def _plain(value):
    if isinstance(value, Config):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def check_int(name: str, value, minimum: int) -> int:
    """value as an int, or a ValueError naming the field unless it is an
    integer of at least minimum. Integers are what operator.index accepts,
    bools aside; a float is refused rather than truncated."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_list(name: str, value) -> tuple:
    """value as a tuple, or a ValueError naming the field unless it is a list
    or a tuple; a scalar or a string is refused rather than iterated."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def check_real(name: str, value, *, positive: bool = False) -> float:
    """value as a float, or a ValueError naming the field unless it is a
    finite real, and above 0 when positive is set. Reals are what
    numbers.Real accepts, bools aside; a string is refused, not parsed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or (positive and value <= 0.0):
        need = "finite and positive" if positive else "finite"
        raise ValueError(f"{name} must be {need}, got {value!r}")
    return value


class Config:
    """Mixin for dataclasses that round-trip through JSON."""

    def _check_ints(self, **minimums) -> None:
        """check_int each named field against its minimum, in place."""
        for name, minimum in minimums.items():
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))

    def _check_reals(self, *names, positive: bool = False) -> None:
        """check_real each named field, in place."""
        for name in names:
            object.__setattr__(self, name, check_real(name, getattr(self, name), positive=positive))

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise TypeError(f"{cls.__name__} config must be an object, got {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(map(repr, unknown))}")
        hints = get_type_hints(cls)
        kwargs = dict(d)
        for name, value in d.items():
            for hint in get_args(hints[name]) or (hints[name],):
                if value is not None and isinstance(hint, type) and issubclass(hint, Config):
                    kwargs[name] = hint.from_dict(value)
        return cls(**kwargs)
