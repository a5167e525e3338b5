"""Strict key check shared by the JSON config loaders (`from_dict`)."""

from __future__ import annotations

from dataclasses import fields


def reject_unknown_keys(cls, d) -> None:
    """Raise unless d is a dict whose keys are all fields of dataclass cls.

    A misspelled key would otherwise be dropped and its field silently keep
    the default.
    """
    if not isinstance(d, dict):
        raise TypeError(f"{cls.__name__} config must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(map(repr, unknown))}")
