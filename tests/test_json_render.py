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
from unitfrac._json import render

from test_cli_golden import run_main


class DictSubclass(dict):
    """The stdlib renders it as a dict."""


LOOKALIKES = ["},\n      {", "[{", "}]", "},\n  {", ",\n    ", "\n"]

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


# lists of flat non-empty dicts take the renderer's one-call path
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
