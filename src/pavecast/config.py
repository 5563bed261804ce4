"""Config sections read from JSON by one rule: every key must name a field of
the config dataclass, and every value must fit its field's type. A number
fits a float field and an integer an int field, but a bool fits neither; a
list fits a tuple field and becomes a tuple; an object fits a config
dataclass field and is read by this same rule. __post_init__ checks ranges.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from functools import cache


class RunConfigError(ValueError):
    """Run configuration missing or contradictory."""


_MISFIT = object()  # what _read returns for a value its type does not admit


@cache
def _field_types(cls) -> dict[str, tuple[object, str]]:
    """Each field's type, and its annotation as the source spells it."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.type) for f in dataclasses.fields(cls)}


@cache
def _kind(tp) -> tuple[object, tuple, bool]:
    """tp's generic origin, its type arguments and whether it is a dataclass."""
    return typing.get_origin(tp), typing.get_args(tp), dataclasses.is_dataclass(tp)


def _read(tp, value, section: str):
    """value as a field of type tp holds it, or _MISFIT; an object for a config
    dataclass is read as the section named section."""
    origin, args, is_config = _kind(tp)
    if origin in (typing.Union, types.UnionType):
        return next((out for out in (_read(option, value, section) for option in args)
                     if out is not _MISFIT), _MISFIT)
    if is_config:
        return read_config(tp, value, section) if isinstance(value, dict) else _MISFIT
    if origin in (tuple, list) and isinstance(value, (list, tuple)):
        items = [_read(args[0], v, section) for v in value]  # each fits the first type
        return _MISFIT if any(v is _MISFIT for v in items) else origin(items)
    if origin is not None or (isinstance(value, bool) and tp is not bool):
        return _MISFIT  # no other generic comes from JSON, and a bool is no number
    return value if isinstance(value, (int, float) if tp is float else tp) else _MISFIT


def read_field(cls, key: str, value, name: str):
    """value as cls's field key holds it; a RunConfigError calls it name."""
    tp, spelling = _field_types(cls)[key]
    # a section of the root config goes by its own key: graph, dataset.synthetic
    out = _read(tp, value, name.removeprefix("config."))
    if out is _MISFIT:
        raise RunConfigError(f"{name} must be {spelling}, got {value!r}")
    return out


def read_config(cls, values, section: str):
    """cls built from the JSON object values, which a RunConfigError calls section."""
    if not isinstance(values, dict):
        raise RunConfigError(f"{section} must be an object, got {values!r}")
    kwargs = {}
    for key, value in values.items():
        if key not in _field_types(cls):
            raise RunConfigError(f"unknown {section} key {key!r}")
        kwargs[key] = read_field(cls, key, value, f"{section}.{key}")
    return cls(**kwargs)
