"""The CLI's JSON writer: `json.dumps(obj, indent=2)` without the big string.

It lives apart from cli.py because, run without a bytecode cache, every
command compiles cli.py, and the longer cli.py raised each command's
peak RSS by about 0.12 MB; compiled on its own this module costs none.
"""

from __future__ import annotations

import functools
import json
from typing import Callable

_SCALARS = {str, int, float, bool, type(None)}


@functools.lru_cache(maxsize=None)
def _encoder(depth: int) -> Callable[[object], str]:
    """`encode` of a C encoder whose item separator starts a new line
    indented to `depth` levels, as `json.dumps(indent=2)` lays them out."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode


def _write_json(obj: object, write: Callable[[str], object]) -> None:
    """Write `json.dumps(obj, indent=2) + "\\n"` through `write`, piece by piece.

    With `indent` set, `json.dumps` takes the pure-Python encoder, which
    holds one string per item until it joins them all. Here a container
    whose items are all scalars is one call of the C encoder, and only the
    containers above those are walked in Python, so no piece is larger
    than one such container.
    """
    _write_value(obj, write, 0)
    write("\n")


def _write_value(obj: object, write: Callable[[str], object], depth: int) -> None:
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))):
        write(_encoder(depth)(obj))
        return
    if not obj:
        write("{}" if is_dict else "[]")
        return
    opening, closing = "{}" if is_dict else "[]"
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    encode = _encoder(depth + 1)
    values = obj.values() if is_dict else obj
    if set(map(type, values)) <= _SCALARS:
        # the encoder's separators already carry the line breaks
        write(opening + inner + encode(obj)[1:-1] + outer + closing)
        return
    write(opening)
    head = inner
    for key, value in obj.items() if is_dict else enumerate(obj):
        if is_dict:
            # '{"key": 0}' less its braces and value: the key as json.dumps
            # writes it (int, float, bool and None keys too) and ': '
            head += encode({key: 0})[1:-2]
        if type(value) in _SCALARS:
            write(head + encode(value))
        else:
            write(head)
            _write_value(value, write, depth + 1)
        head = "," + inner
    write(outer + closing)
