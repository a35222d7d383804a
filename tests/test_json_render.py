"""The CLI's json text is exactly ``json.dumps(doc, indent=2)``.

``unitfrac._json.render`` builds that text in pieces, mostly through the
stdlib's unindented encoder; here its pieces are joined and compared with
the stdlib's own indented text for arbitrary documents, including the
strings that look like the separators the renderer rewrites.
"""
from __future__ import annotations

import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unitfrac import cli
from unitfrac._json import Rows, render

from test_cli_golden import run_main


class DictSubclass(dict):
    """The stdlib renders it as a dict."""


# the separators the renderer puts between items, and the "%" forms its
# table rows are formatted with
LOOKALIKES = ["},\n      {", "[{", "}]", "},\n  {", ",\n    ", "\n", "%s",
              "%.0s", "%"]

SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(),
    st.integers(min_value=10**999, max_value=10**1000 - 1),
    st.integers(max_value=-1),
    st.floats(),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1f) | st.sampled_from(
        "é€😀 \"\\{}[],: ")),
    st.sampled_from(LOOKALIKES),
)
KEYS = st.one_of(st.text(max_size=8), st.sampled_from(LOOKALIKES),
                 st.integers(), st.booleans(), st.none())


def dicts(values):
    return st.one_of(
        st.dictionaries(KEYS, values, max_size=5),
        st.dictionaries(KEYS, values, max_size=5).map(DictSubclass))


# lists of flat dicts, the text a ``Rows`` table gives, take the general
# path when held as dicts
FLAT_DICT_LISTS = st.lists(
    st.dictionaries(KEYS, SCALARS, min_size=1, max_size=4), max_size=6)

DOCUMENTS = st.recursive(
    SCALARS | FLAT_DICT_LISTS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        dicts(children),
        st.lists(dicts(children), max_size=4)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
@example({"open-verdicts": [{"index": 1, "case": "},\n      {"},
                            {"index": 2, "case": "[{"}],
          "x": [{"a": "}]"}, {}], "y": ({}, [], ()),
          None: DictSubclass(a=[])})
@example([[{"k": 1}, {"k": "},\n    {"}]])
@example({"rows": [{"n": n, "s": "},\n      {"} for n in range(600)]})
def test_render_is_the_stdlib_indent_2_text(doc):
    assert "".join(render(doc)) == json.dumps(doc, indent=2)


def stdlib_text(keys, rows, depth):
    """The stdlib's indent-2 text of the rows as dicts, at ``depth``."""
    text = json.dumps([dict(zip(keys, row)) for row in rows], indent=2)
    return text.replace("\n", "\n" + "  " * depth)


@st.composite
def tables(draw):
    """Keys that stay distinct as dict keys, and rows of one scalar per
    key: a few rows drawn, repeated up to a row count around a chunk."""
    keys = draw(st.lists(KEYS, unique=True, max_size=5))
    drawn = draw(st.lists(st.tuples(*[SCALARS] * len(keys)),
                          min_size=1, max_size=8))
    count = draw(st.sampled_from([0, 1, 63, 64, 65, 600]))
    return keys, [drawn[n % len(drawn)] for n in range(count)]


@settings(max_examples=200, deadline=None)
@given(tables(), st.integers(0, 3))
@example(((), [()] * 65), 0)
@example((("%s", "%", 1), [("%.0s", "%", "\n")] * 64), 2)
def test_rows_are_the_stdlib_text_of_their_dicts(table, depth):
    keys, rows = table
    assert "".join(render(Rows(keys, rows), depth)) == stdlib_text(
        keys, rows, depth)
    # read once, as the command line gives it, and inside a document
    doc = {"rows": Rows(keys, iter(rows)), "n": [Rows(keys, rows[:65])]}
    assert "".join(render(doc)) == json.dumps(
        {"rows": [dict(zip(keys, row)) for row in rows],
         "n": [[dict(zip(keys, row)) for row in rows[:65]]]}, indent=2)


@pytest.mark.parametrize("keys", [(1, True), ("a", 0, False), (None, None)])
def test_rows_refuse_keys_that_collide(keys):
    # as dict keys they collapse to fewer members than the rows hold
    with pytest.raises(ValueError, match="collide"):
        render(Rows(keys, [tuple(range(len(keys)))]))


@pytest.mark.parametrize("row", [(), (1,), (1, 2, 3)])
def test_rows_refuse_a_row_of_another_length(row):
    # zip would drop a value or a key; past the first chunk too
    for rows in ([row], [(1, 2)] * 64 + [row]):
        with pytest.raises(ValueError, match="one scalar per key"):
            render(Rows(("a", "b"), rows))


@pytest.mark.parametrize("value", [[], {}, (1,), DictSubclass(),
                                   Rows(("a",), [(1,)])])
def test_rows_refuse_a_value_that_is_not_a_scalar(value):
    with pytest.raises(ValueError, match="one scalar per key"):
        render(Rows(("a", "b"), [(1, 2), (3, value)]))


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="no int-to-str digit limit in this Python")
def test_integer_past_the_digit_limit_exits_2(tmp_path):
    # each verdict's k is about a*a', twice the digits of a, so only an
    # integer inside the json document passes the limit, none read from
    # the file and none printed before the document is rendered
    a = 10 ** (sys.get_int_max_str_digits() - 1)
    path = tmp_path / "a.txt"
    path.write_text(f"{a}\n{a + 2}\n")
    with pytest.raises(ValueError) as limit:
        str(a * a)
    message = str(limit.value)
    code, out, err = run_main(["unique", "--a-file", str(path),
                               "--format", "json"])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"
    assert "Exceeds the limit (" in message
