"""The CLI's one JSON renderer: the stdlib's text at an indent of 2.

The stdlib indents in pure Python; its C encoder runs only unindented.
So a container of scalars is encoded in one call that separates items by
a newline and the pad of its members, and only its brackets are redone.
A table given as ``Rows`` has its values encoded ``_ROWS`` rows a call.
Containers are dicts, lists and tuples, subclasses too, as in the stdlib.
Without the C encoder the same calls give the same text, more slowly.
"""
import functools
import json
from itertools import chain, islice
from typing import Iterable, NamedTuple

_ROWS = 64  # rows per encode call: no long table is copied whole


class Rows(NamedTuple):
    """A list of dicts, ``dict(zip(keys, row))`` for each row, read once."""
    keys: tuple
    rows: Iterable[tuple]


@functools.lru_cache(maxsize=None)
def _encoder(depth: int, separator: str = ",\n") -> json.JSONEncoder:
    return json.JSONEncoder(separators=(separator + "  " * depth, ": "))


def _scalars(values) -> bool:  # one issubclass per type, not per value
    return not any(issubclass(kind, (dict, list, tuple))
                   for kind in set(map(type, values)))


def _rows(table: Rows, depth: int) -> list[str]:
    # a row is a % format of its values' texts around its keys' texts
    close, pad, inner = ("\n" + "  " * d for d in range(depth, depth + 3))
    keys, rows, pieces = table.keys, iter(table.rows), []
    if len(set(keys)) < len(keys):
        raise ValueError(f"keys that collide in a dict: {keys!r}")
    row = ",".join(inner + _encoder(0).encode({key: 0})[1:-2]
                   .replace("%", "%%") + "%s" for key in keys)
    row = "," + pad + "{" + (row + pad if keys else "") + "}"
    while chunk := list(islice(rows, _ROWS)):
        # one list separated by "\n", which no scalar's text holds raw,
        # splits into its values' texts; a None at each end takes a
        # bracket, and "%.0s" prints it as ""
        values = [None, *chain.from_iterable(chunk), None]
        if set(map(len, chunk)) != {len(keys)} or not _scalars(values):
            raise ValueError(f"each row must hold one scalar per key {keys}")
        text = "%.0s" + (row * len(chunk))[0 if pieces else 1:] + "%.0s"
        values = _encoder(0, "\n").encode(values).split("\n")
        pieces.append(text % tuple(values))
    return ["["] + pieces + [close + "]"] if pieces else ["[]"]


def render(value, depth: int = 0) -> list[str]:
    """Pieces of the text of ``value`` indented by 2, starting at depth."""
    if isinstance(value, Rows):
        return _rows(value, depth)
    if _scalars([value]) or not value:
        return [_encoder(depth).encode(value)]
    close, pad = ("\n" + "  " * d for d in range(depth, depth + 2))
    is_dict = isinstance(value, dict)
    if _scalars(value.values() if is_dict else value):
        text = _encoder(depth + 1).encode(value)
        return [text[0] + pad, text[1:-1], close + text[-1]]
    pieces = ["{" if is_dict else "["]
    for n, item in enumerate(value.items() if is_dict else value):
        pieces.append("," + pad if n else pad)
        if is_dict:  # the stdlib's text of the key, whatever its type
            pieces.append(_encoder(0).encode({item[0]: 0})[1:-2])
            item = item[1]
        pieces += render(item, depth + 1)
    return pieces + [close + ("}" if is_dict else "]")]
