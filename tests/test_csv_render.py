"""The CLI's csv text is exactly the stdlib csv writer's, and its table
text the cells padded one by one.

``cli._csv_pieces`` formats each piece's fields with commas instead of
calling ``csv.writer``, and refuses a row whose width is not the header's;
here its pieces are joined and compared with the writer's text
(``lineterminator="\\n"``) for rows drawn from the field types the CLI
prints: ints of any size and sign, bools, None, "P/Q" text and the census
case names, under the CLI's column names, and for census rows of several
pieces. ``cli._table_lines`` pads whole columns; here its lines are
compared with each cell padded by ``str.ljust`` on its own.
"""
from __future__ import annotations

import csv
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitfrac import cli
from unitfrac.uniqueness import CensusRow, sweep

from test_cli_golden import run_main

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


def test_census_pieces_are_the_csv_writer_text():
    # 1711 rows in 7 pieces of 256, with None in every a' = a + 1 row
    rows = list(sweep(60))
    pieces = list(cli._csv_pieces(CensusRow._fields, rows))
    assert len(rows) == 1711 and len(pieces) == 1 + 7
    assert sum(row.open_count is None for row in rows) == 58
    assert "".join(pieces) == writer_text(CensusRow._fields, rows)


def test_text_fields_are_the_drawn_cases():
    # _csv_pieces blanks None by replacing its text, so no other text may
    # hold "None"; a name outside CASES escapes the property that shows it
    names = {case for row in sweep(60)
             for case in (row.open_case, row.closed_case)}
    code, out, _ = run_main(["unique", "--pair", "2", "7", "--format", "csv"])
    names |= {line.split(",")[0] for line in out.splitlines()[1:]}
    assert code == 0 and names <= set(CASES)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7).flatmap(lambda width: st.tuples(
           st.lists(NAMES, min_size=width, max_size=width),
           st.lists(st.lists(FIELDS, min_size=width, max_size=width),
                    min_size=2, max_size=12))),
       st.data())
def test_pieces_refuse_a_row_of_another_width(table, data):
    # a short row with a long one holds the fields of two whole rows, so
    # only a check of each row keeps a flat format from shifting them
    columns, rows = table
    i, j = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                              max_size=2, unique=True))
    short, long_, both = ([list(row) for row in rows] for _ in range(3))
    short[i].pop()
    long_[j].append(None)
    both[i].pop()
    both[j].append(None)
    for bad in (short, long_, both):
        with pytest.raises(ValueError, match="width"):
            list(cli._csv_pieces(columns, bad))


def ljust_table(header, rows) -> list[str]:
    """The table's lines cell by cell: each cell ``str`` of its field,
    padded to its column's widest cell, two spaces apart, trailing
    space cut."""
    cells = [list(header)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(header))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in cells]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda width: st.tuples(
           st.lists(NAMES, min_size=width, max_size=width),
           st.lists(st.lists(FIELDS, min_size=width, max_size=width),
                    max_size=12))))
def test_table_lines_are_the_padded_cells(table):
    # header-only and one-column tables included; None prints as "None"
    columns, rows = table
    assert cli._table_lines(columns, rows) == ljust_table(columns, rows)
    assert cli._table_lines(tuple(columns), iter(map(tuple, rows))) == \
        ljust_table(columns, rows)
