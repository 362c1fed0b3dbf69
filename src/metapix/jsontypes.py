"""The one type rule for every JSON document the pipeline reads: an int is
accepted where a float is due; bools, strings, NaN, infinities and ints beyond
the float range are not.  Errors read "<label> <path> expects <type>, got <json>",
the refused value's JSON cut after SHOWN_CHARS characters.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import sys
import typing


# Characters of a refused value that an error message shows before "...".
SHOWN_CHARS = 60


def _clip(value, room: int):
    """value with strings cut to room + 1 characters, lists and objects to
    room items and nesting to room levels.  The JSON text of the copy agrees
    with that of value on its first room characters and is longer than room
    exactly when that of value is, however large or deep value is."""
    if type(value) is str:
        return value[:room + 1]
    if type(value) is list:
        return [_clip(v, room - 1) for v in value[:max(room, 0)]]
    if type(value) is dict:
        items = itertools.islice(value.items(), max(room, 0))
        return {k[:room + 1]: _clip(v, room - 1) for k, v in items}
    return value


def _shown(value) -> str:
    text = json.dumps(_clip(value, SHOWN_CHARS))
    return text if len(text) <= SHOWN_CHARS else text[:SHOWN_CHARS] + "..."


def _where(label: str, path: str) -> str:
    return " ".join(filter(None, (label, path))) or "document"


def loads(text: str):
    """json.loads; a document nested past the recursion limit is a ValueError too."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def read(hint, value, label: str, path: str = "", defaults=None):
    """`value` as type `hint`: a dataclass, tuple, union or plain type.  A
    dataclass takes an object; `defaults`, an instance, fills missing keys."""
    args = typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return hint(**read_object(typing.get_type_hints(hint), value, label, path,
                                  defaults and vars(defaults)))
    if typing.get_origin(hint) is tuple:
        if type(value) is list:
            types = (args[0],) * len(value) if args[-1] is Ellipsis else args
            if len(types) == len(value):
                return tuple(read(t, v, label, f"{path}[{i}]")
                             for i, (t, v) in enumerate(zip(types, value)))
    elif args:  # a union such as float | None
        for option in args:
            with contextlib.suppress(ValueError):
                return read(option, value, label, path)
    elif hint is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is hint:
        return value
    name = hint.__name__ if isinstance(hint, type) else hint
    raise ValueError(f"{_where(label, path)} expects {name}, got {_shown(value)}")


def read_object(hints: dict, value, label: str, path: str = "",
                defaults: dict | None = None) -> dict:
    """An object as a dict of the fields in `hints`.  An unknown key is
    refused; a missing one comes from `defaults`, or is refused without them."""
    if type(value) is not dict:
        raise ValueError(f"{_where(label, path)} expects an object, got {_shown(value)}")
    unknown = next((k for k in value if k not in hints), None)
    if unknown is not None:  # escaped, so that the message stays one line
        unknown = unknown.encode("unicode_escape").decode()
        raise ValueError(f"unknown {_where(label, f'{path}.{unknown}' if path else unknown)}")
    out = {}
    for key, hint in hints.items():
        sub = f"{path}.{key}" if path else key
        if key in value:
            out[key] = read(hint, value[key], label, sub, defaults and defaults[key])
        elif defaults is None:
            raise ValueError(f"{_where(label, sub)} is missing")
        else:
            out[key] = defaults[key]
    return out
