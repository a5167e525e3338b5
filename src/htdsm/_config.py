"""The JSON format of every config dataclass, and the one check on values.

Configs are written with fields in declaration order, nested configs as
objects and tuples as lists. Loading is strict, since a misspelled key would
otherwise be dropped and its field silently keep the default; omitted keys
keep theirs. A nested config that is not an object (null included, unless
its type admits None), or has a missing or an unknown key, is named by its
dotted path, and an error in building it is prefixed with that path
("sampler: seed must be >= 0, got -1"), its type kept. Each field's rule is
its type hint, which check_field applies when a Config dataclass is built; a
class's own __post_init__ keeps only the rules that join two fields or more.
CLI flags, checkpoints and library arguments are checked by check_field too.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import MISSING, fields
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


def check_field(name: str, hint, value):
    """value as field `name` of type hint holds it, or a ValueError naming
    the field. Index and Count are integers of at least 0 and 1 (what
    operator.index takes, bools aside: a float is refused, not truncated);
    Real is a finite real and Positive one above 0 (what numbers.Real takes,
    bools aside: a string is refused, not parsed). tuple[T, ...] is a list
    or a tuple of T, not a scalar or a string. T | None also takes None, and
    a list takes the tuple member of Count | tuple[Count, ...]. Any other
    class is an isinstance check, which refuses None."""
    origin = get_origin(hint)
    if origin is Annotated:
        base, rule = get_args(hint)
        if base is int:
            try:
                if isinstance(value, bool):
                    raise TypeError
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < rule:
                raise ValueError(f"{name} must be >= {rule}, got {value}")
            return value
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        value = float(value)
        if not math.isfinite(value) or (rule and value <= 0.0):
            need = "finite and positive" if rule else "finite"
            raise ValueError(f"{name} must be {need}, got {value!r}")
        return value
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return tuple(check_field(name, get_args(hint)[0], v) for v in value)
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


class Config:
    """Mixin for dataclasses whose fields check_field checks from their type
    hints when built (a subclass's __post_init__ calls this one first), and
    that round-trip through JSON."""

    def __post_init__(self) -> None:
        for name, hint in _hints(type(self)).items():
            object.__setattr__(self, name, check_field(name, hint, getattr(self, name)))

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d, path: str = ""):
        """cls from its JSON object d, at dotted path (say "train.schedule"),
        which a ValueError in building a nested cls gets before its message."""
        if not isinstance(d, dict):
            raise TypeError(f"{path or cls.__name__} must be an object, got {type(d).__name__}")
        where = f"{cls.__name__} key(s)" + (f" in {path}" if path else "")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        missing = [f.name for f in fields(cls)
                   if f.name not in d and f.default is f.default_factory is MISSING]
        for problem, keys in (("unknown", unknown), ("missing", missing)):
            if keys:
                raise ValueError(f"{problem} {where}: {', '.join(map(repr, keys))}")
        hints = _hints(cls)
        kwargs = dict(d)
        for name, value in d.items():
            members = get_args(hints[name]) or (hints[name],)
            if value is None and NoneType in members:
                continue
            for hint in members:
                if isinstance(hint, type) and issubclass(hint, Config):
                    kwargs[name] = hint.from_dict(value, f"{path}.{name}" if path else name)
        try:
            return cls(**kwargs)
        except ValueError as exc:
            if not path:
                raise
            raise type(exc)(f"{path}: {exc}") from None
