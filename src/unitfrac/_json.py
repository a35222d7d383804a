"""The CLI's one JSON renderer: the stdlib's text at an indent of 2.

The stdlib indents in pure Python; its C encoder runs only unindented.
So a container of scalars is encoded in one call that separates items by
a newline and the pad of its members, and only its brackets are redone.
Containers are dicts, lists and tuples, subclasses too, as in the stdlib.
Without the C encoder the same calls give the same text, more slowly.
"""
import functools
import json
from itertools import chain

_ROWS = 64  # flat dicts per encode call: no long list is copied whole


@functools.lru_cache(maxsize=None)
def _encoder(depth: int) -> json.JSONEncoder:
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "))


def _scalars(values) -> bool:  # one issubclass per type, not per value
    return not any(issubclass(kind, (dict, list, tuple))
                   for kind in set(map(type, values)))


def render(value, depth: int = 0) -> list[str]:
    """Pieces of the text of ``value`` indented by 2, starting at depth."""
    if _scalars([value]) or not value:
        return [_encoder(depth).encode(value)]
    close, pad, inner = ("\n" + "  " * d for d in range(depth, depth + 3))
    is_dict = isinstance(value, dict)
    if _scalars(value.values() if is_dict else value):
        text = _encoder(depth + 1).encode(value)
        return [text[0] + pad, text[1:-1], close + text[-1]]
    pieces = ["{" if is_dict else "["]
    rows = not is_dict and set(map(type, value)) == {dict} and all(value)
    if rows and _scalars(chain.from_iterable(map(dict.values, value))):
        # strings escape control characters and a key's quote follows a
        # member's separator, so only item boundaries read "},<separator>{"
        for n in range(0, len(value), _ROWS):
            text = _encoder(depth + 2).encode(value[n:n + _ROWS])[2:-2]
            pieces += [("," if n else "") + pad + "{" + inner,
                       text.replace("}," + inner + "{",
                                    pad + "}," + pad + "{" + inner),
                       pad + "}"]
        return pieces + [close + "]"]
    for n, item in enumerate(value.items() if is_dict else value):
        pieces.append("," + pad if n else pad)
        if is_dict:  # the stdlib's text of the key, whatever its type
            pieces.append(_encoder(0).encode({item[0]: 0})[1:-2])
            item = item[1]
        pieces += render(item, depth + 1)
    return pieces + [close + ("}" if is_dict else "]")]
