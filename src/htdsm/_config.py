"""The JSON format of every config dataclass, and the checks on its fields.

Configs are written with fields in declaration order, nested configs as
objects and tuples as lists. Loading is strict, since a misspelled key would
otherwise be dropped and its field silently keep the default; omitted keys
keep theirs. Each field's rule is its type hint, which check_field applies
when a `Checked` dataclass is built; a class's own __post_init__ keeps only
the rules that join two or more fields.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import fields
from types import NoneType, UnionType
from typing import Annotated, Union, get_args, get_origin, get_type_hints

Index = Annotated[int, 0]
Count = Annotated[int, 1]
Real = Annotated[float, False]
Positive = Annotated[float, True]


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


def check_field(name: str, hint, value):
    """value as field `name` of type hint holds it, or a ValueError naming
    the field. Index and Count are integers of at least 0 and 1 (check_int),
    Real a finite real and Positive one above 0 (check_real); tuple[T, ...]
    is a list or a tuple (check_list) of T. T | None also takes None, and a
    list takes the tuple member of Count | tuple[Count, ...]. Any other class
    is an isinstance check: a nested config given as null is refused."""
    origin = get_origin(hint)
    if origin is Annotated:
        base, rule = get_args(hint)
        if base is int:
            return check_int(name, value, rule)
        return check_real(name, value, positive=rule)
    if origin is tuple:
        return tuple(check_field(name, get_args(hint)[0], v) for v in check_list(name, value))
    if origin is Union or origin is UnionType:
        members = get_args(hint)
        if value is None and NoneType in members:
            return None
        listed = isinstance(value, (list, tuple))
        member = next((m for m in members if (get_origin(m) is tuple) == listed), members[0])
        return check_field(name, member, value)
    if not isinstance(value, hint):
        raise ValueError(f"{name} must be a {hint.__name__}, got {value!r}")
    return value


# A class's field types by name, the Annotated rules kept.
_hints = functools.cache(functools.partial(get_type_hints, include_extras=True))


class Checked:
    """Mixin for dataclasses whose fields check_field checks from their type
    hints when built; a subclass's __post_init__ calls this one first."""

    def __post_init__(self) -> None:
        for name, hint in _hints(type(self)).items():
            object.__setattr__(self, name, check_field(name, hint, getattr(self, name)))


class Config(Checked):
    """Mixin for checked dataclasses that round-trip through JSON."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise TypeError(f"{cls.__name__} config must be an object, got {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(map(repr, unknown))}")
        hints = _hints(cls)
        kwargs = dict(d)
        for name, value in d.items():
            for hint in get_args(hints[name]) or (hints[name],):
                if value is not None and isinstance(hint, type) and issubclass(hint, Config):
                    kwargs[name] = hint.from_dict(value)
        return cls(**kwargs)
