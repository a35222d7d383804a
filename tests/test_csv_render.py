"""The CLI's csv text is exactly the stdlib csv writer's.

``cli._csv_pieces`` joins each row's fields with commas instead of calling
``csv.writer``; here its pieces are joined and compared with the writer's
text (``lineterminator="\\n"``) for rows drawn from the field types the CLI
prints: ints of any size and sign, bools, None, "P/Q" text and the census
case names, under the CLI's column names.
"""
from __future__ import annotations

import csv
import io
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from unitfrac import cli
from unitfrac.uniqueness import CensusRow

CASES = ("unbounded", "open-divisible", "open-nondivisible",
         "closed-divisible", "closed-nondivisible", "open", "closed")

FIELDS = st.one_of(
    st.integers(),
    st.integers(min_value=10**999, max_value=10**1000 - 1),
    st.integers(max_value=-1),
    st.booleans(),
    st.none(),
    st.fractions().map(lambda x: f"{x.numerator}/{x.denominator}"),
    st.sampled_from(CASES),
)
# the csv headers of every command
NAMES = st.sampled_from(CensusRow._fields + (
    "index", "n", "a", "b", "residual", "lower-margin", "upper-margin",
    "criterion", "unique", "k", "case", "a-next", "open-unique",
    "open-case", "closed-unique", "closed-case", "t", "witnesses",
    "second-half-witnesses"))


def writer_text(columns, rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([columns, *rows])
    return buffer.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7).flatmap(lambda width: st.tuples(
           st.lists(NAMES, min_size=width, max_size=width),
           st.lists(st.lists(FIELDS, min_size=width, max_size=width),
                    max_size=12))),
       st.integers(1, 5))
def test_pieces_are_the_csv_writer_text(table, piece_rows):
    columns, rows = table
    with mock.patch.object(cli, "_CSV_PIECE_ROWS", piece_rows):
        pieces = list(cli._csv_pieces(columns, rows))
    assert "".join(pieces) == writer_text(columns, rows)
    # the header, then whole rows, piece_rows at a time
    assert len(pieces) == 1 + -(-len(rows) // piece_rows)
    assert all(piece.endswith("\n") for piece in pieces)
