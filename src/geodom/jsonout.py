"""The CLI's JSON writer: `json.dumps(obj, indent=2)` without the big string.

It lives apart from cli.py because, run without a bytecode cache, every
command compiles cli.py, and the longer cli.py raised each command's
peak RSS by about 0.12 MB; compiled on its own this module costs none.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from typing import Callable

_SCALARS = {str, int, float, bool, type(None)}
# pieces are joined into writes of about this many characters: unbuffered
# stdout makes every write a system call
_CHUNK = 1 << 14


class Encoded(list):
    """A list whose items are already JSON text, such as labels escaped
    once with `encode_basestring_ascii` (the escaper `json.dumps` uses by
    default) and reused across many lists."""

    __slots__ = ()


@functools.lru_cache(maxsize=None)
def _encoder(depth: int) -> Callable[[object], str]:
    """`encode` of a C encoder whose item separator starts a new line
    indented to `depth` levels, as `json.dumps(indent=2)` lays them out."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode


def _write_json(obj: object, write: Callable[[str], object]) -> None:
    """Write `json.dumps(obj, indent=2) + "\\n"` through `write`, in pieces
    of about 16 KiB, with any iterator in `obj` written as the list of its
    items: taken one at a time, so the list is never built.

    With `indent` set, `json.dumps` takes the pure-Python encoder, which
    holds one string per item until it joins them all. Here a scalar is
    escaped or formatted directly, a container whose items are all scalars
    is one call of the C encoder, an `Encoded` list is one `join`, and only
    the containers above those are walked in Python, each item handed to
    the 16 KiB write buffer as it is made. So nothing larger than one such
    item and the buffer is held at once.
    """
    pieces: list[str] = []
    size = 0

    def emit(text: str) -> None:
        nonlocal size
        pieces.append(text)
        size += len(text)
        if size >= _CHUNK:
            write("".join(pieces))
            pieces.clear()
            size = 0

    text = _leaf(obj, 0)
    if text is None:
        _write_container(obj, emit, 0)
    else:
        emit(text)
    pieces.append("\n")
    write("".join(pieces))


def _leaf(value: object, depth: int) -> str | None:
    """The JSON text of a value at the given depth when it needs no walk
    in Python, else None."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        return None if isinstance(value, Iterator) else _encoder(depth)(value)
    if not value:
        return "{}" if is_dict else "[]"
    opening, closing = "{}" if is_dict else "[]"
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    if kind is Encoded:
        return "[" + inner + ("," + inner).join(value) + outer + "]"
    if set(map(type, value.values() if is_dict else value)) <= _SCALARS:
        # the encoder's separators already carry the line breaks
        return opening + inner + _encoder(depth + 1)(value)[1:-1] + outer + closing
    return None


def _write_container(
    obj: "dict | list | tuple | Iterator", emit: Callable[[str], None], depth: int
) -> None:
    """Walk an iterator, or a container some of whose items are containers
    to walk too."""
    is_dict = isinstance(obj, dict)
    opening, closing = "{}" if is_dict else "[]"
    inner = "\n" + "  " * (depth + 1)
    emit(opening)
    sep = ""
    for key, value in obj.items() if is_dict else enumerate(obj):
        head = sep + inner
        if is_dict and type(key) is str:
            head += encode_basestring_ascii(key) + ": "
        elif is_dict:
            # '{"key": 0}' less its braces and value: an int, float, bool
            # or None key as json.dumps writes it
            head += _encoder(0)({key: 0})[1:-2]
        text = _leaf(value, depth + 1)
        if text is None:
            emit(head)
            _write_container(value, emit, depth + 1)
        else:
            emit(head + text)
        sep = ","
    # only an iterator can turn out empty here
    emit(("\n" + "  " * depth if sep else "") + closing)
