"""Command line front end, and every document it prints: each command
builds its json document beside its table and csv columns.

Exit codes: 0 on success, 1 when a verification or cross-check fails on
well-formed input, 2 for malformed input or internal errors, 141 when the
reader closes the output pipe early.  Output is deterministic: the same
invocation produces identical bytes.  It is written whole once the command
has finished, so stdout stays empty when the exit code is 2.
"""
import argparse
import functools
import io
import itertools
import operator
import os
import sys
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

# a command imports the modules it runs, so only rational, which reads
# and prints the numbers of every command, is imported here
from .rational import (format_rational, parse_int, parse_ints,
                       parse_rational, positive_int)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
# 128 + SIGPIPE, what a shell reports for a tool killed by a closed pipe
EXIT_PIPE_CLOSED = 141
# rows per csv piece: 256 rows of census or expansion make a few
# kilobytes; construct's certificates make 11 kB at arithmetic depth 290
# and 69 kB at geometric depth 175, whose rows run to 0.8 kB
_CSV_PIECE_ROWS = 256
_VERDICT_KEYS = ("index", "a", "a-next", "unique", "k", "case")


def _read_sequence_file(path: str) -> list[int]:
    """One ``parse_int`` integer per line; any other line rejects."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    # text mode reads "\r\n" as "\n", and str.splitlines would also split
    # at "\v", "\f" and other separators inside a line
    lines = text.split("\n")
    if not lines[-1]:
        del lines[-1]  # the newline that ends the last line
    try:
        values = parse_ints(lines)
    except ValueError as exc:
        raise ValueError(f"{path}:{exc}") from None
    if values:
        return values
    raise ValueError(f"{path}: empty sequence file")


def _table_lines(header, rows) -> list[str]:
    """The header and rows as lines of cells, each column as wide as its
    widest cell and two spaces apart, with no trailing space; a cell is
    ``str`` of its field.

    It runs column by column, so no Python frame is made per cell: the
    columns are the rows transposed, and the lines the padded columns
    transposed back. The last column is not padded, which ``rstrip``
    would take off.
    """
    rows = [header, *rows]
    columns = [list(map(str, map(operator.itemgetter(i), rows)))
               for i in range(len(header))]
    del rows  # the row tuples go before the lines are made
    padded = [map(str.ljust, cells, itertools.repeat(max(map(len, cells))))
              for cells in columns[:-1]]
    return list(map(str.rstrip, map("  ".join, zip(*padded, columns[-1]))))


class Report(NamedTuple):
    """What one command prints, in a form every output format reads.

    Only what the chosen format prints is evaluated: ``doc`` is called for
    json alone, and ``rows``, ``before`` and ``after`` are iterated only by
    the formats that print them, so they can be lazy. ``exit`` is the exit
    code, or a function giving it that is called once the text is made.
    """

    doc: Callable[[], object]  # the json document
    columns: tuple[str, ...] = ()  # table header; empty prints no table
    rows: Iterable = ()
    csv_columns: tuple[str, ...] = ()  # csv header, when not ``columns``
    before: Iterable[str] = ()  # table lines above the table
    after: Iterable[str] = ()  # table lines below the table
    exit: int | Callable[[], int] = EXIT_OK


def _csv_pieces(columns, rows) -> Iterator[str]:
    """csv text as the header, then pieces of ``_CSV_PIECE_ROWS`` rows.

    Each row is its fields joined by commas, None as an empty field. This
    is the stdlib csv writer's text for every row the CLI prints: each
    field is an int, a bool, None, "P/Q" text or a hyphenated name, so
    none needs quoting, every row has more than one field, and no text
    but None's, nor any header name, holds "None".

    A piece is one ``%`` format of its fields, flattened, by one "%s"
    per field, then one ``str.replace`` blanks None's text: no Python
    frame is made per row or field. A row whose width is not the header's
    raises ValueError, since a short row by a long one shifts the fields.
    """
    width = len(columns)
    line = ",".join(["%s"] * width) + "\n"
    rows = iter(rows)
    piece = [columns]
    while piece:
        if not all(map(width.__eq__, map(len, piece))):
            raise ValueError(f"a csv row's width is not its header's {width}")
        fields = tuple(itertools.chain.from_iterable(piece))
        yield (line * len(piece) % fields).replace("None", "")
        piece = list(itertools.islice(rows, _CSV_PIECE_ROWS))


def _emit(report: Report, fmt: str) -> int:
    """Render the whole report in the given format, then write it out.

    Returns the report's exit code. csv without a header of its own prints
    the table lines, as table does. json and csv are held as lists of
    pieces, so their text is never copied whole: a csv piece is the text
    of ``_CSV_PIECE_ROWS`` rows.
    """
    csv_columns = report.csv_columns or report.columns
    if fmt == "json":
        from . import _json
        pieces = _json.render(report.doc()) + ["\n"]
    elif fmt == "csv" and csv_columns:
        pieces = list(_csv_pieces(csv_columns, report.rows))
    else:
        table = (_table_lines(report.columns, report.rows)
                 if report.columns else [])
        pieces = ["\n".join([*report.before, *table, *report.after, ""])]
    # the finished text goes out in short writes: with PYTHONUNBUFFERED
    # stdout has no buffer, a short write to a closed pipe drops its rest
    # without an error, and only the next write raises BrokenPipeError
    for piece in pieces:
        for start in range(0, len(piece), io.DEFAULT_BUFFER_SIZE):
            sys.stdout.write(piece[start:start + io.DEFAULT_BUFFER_SIZE])
    sys.stdout.flush()
    return report.exit() if callable(report.exit) else report.exit


# ------------------------------------------------------ shared json shapes

def _interval_doc(iv) -> dict:
    """An open ``RationalInterval``: both ends are excluded."""
    return {"lo": format_rational(iv.lo), "hi": format_rational(iv.hi),
            "lo_open": True, "hi_open": True}


def _verdict_doc(verdict) -> dict:
    return dict(zip(_VERDICT_KEYS, verdict))


def _counts_doc(counts):
    """(t, count) pairs as a table of {t, count} objects."""
    from . import _json
    return _json.Rows(("t", "count"),
                      [(format_rational(t), c) for t, c in counts])


# ---------------------------------------------------------------- commands

def _walk_report(doc, a, b, residuals, **report) -> Report:
    """The walk table of expand and verify, with the report's other
    fields: per step n, a_n, b_n and the residual as "P/Q"."""
    rows = zip(itertools.count(1), a, b, map(format_rational, residuals))
    return Report(doc, ("n", "a", "b", "residual"), rows,
                  csv_columns=("index", "a", "b", "residual"), **report)


def _expand_doc(run) -> dict:
    return {
        "theta": format_rational(run.theta),
        "t": format_rational(run.policy.t),
        "selection": run.policy.selection,
        "a": list(run.a),
        "b": list(run.b),
        "residuals": [format_rational(r) for r in run.residuals],
    }


def _cmd_expand(args) -> Report:
    from .greedy import WgaaPolicy, wgaa_expand
    theta = parse_rational(args.theta)
    t = parse_rational(args.t)
    selection = args.selection or ("greedy" if t == 1 else "ceil-t-a")
    policy = WgaaPolicy(t=t, selection=selection)
    run = wgaa_expand(theta, policy, positive_int(args.terms, "--terms"),
                      last_greedy=args.last_greedy)
    return _walk_report(functools.partial(_expand_doc, run),
                        run.a, run.b, run.residuals)


def _cmd_verify(args) -> Report:
    from .greedy import ReplayOverrunError, bracket_misses, recover_shadow
    b_values = _read_sequence_file(args.b_file)
    theta = parse_rational(args.theta)

    def doc(ok=False, a=(), violation=None, failures=(), overrun_at=None):
        return {
            "ok": ok,
            "theta": format_rational(theta),
            "n-terms": len(b_values),
            "a": list(a),
            "b": list(b_values),
            "first-weak-violation": violation,
            "overrun-at": overrun_at,
            "bracket-checked": args.bracket,
            "bracket-failures": list(failures),
        }

    try:
        replay = recover_shadow(b_values, theta)
    except ReplayOverrunError as exc:
        return Report(
            functools.partial(doc, overrun_at=exc.index),
            after=(f"FAIL: partial sums exhaust theta at index {exc.index}",),
            exit=EXIT_VERIFY)

    failures = bracket_misses(replay.a, b_values) if args.bracket else []
    violation = replay.first_weak_violation
    ok = violation is None and not failures
    if ok:
        verdict = "OK"
    elif violation is not None:
        verdict = f"FAIL: b below the greedy shadow at index {violation}"
    else:
        verdict = f"FAIL: bracket misses at {failures}"
    return _walk_report(
        functools.partial(doc, ok, replay.a, violation, failures),
        replay.a, b_values, replay.residuals, after=(verdict,),
        exit=EXIT_OK if ok else EXIT_VERIFY)


def _construct_summary(result) -> Iterator[str]:
    iv = result.theta_enclosure
    yield (f"jumps {[c.index for c in result.certificates]}, next jump at "
           f"{result.next_jump_index} to {result.next_jump_value}")
    yield (f"theta enclosure ({format_rational(iv.lo)}, "
           f"{format_rational(iv.hi)})")
    yield f"future filler bound {format_rational(result.future_filler_bound)}"


def _construct_doc(result, certificates) -> dict:
    from . import _json
    return {
        "a": list(result.a_prefix),
        "b": list(result.b_prefix),
        "jump-indices": [c.index for c in result.certificates],
        "next-jump-index": result.next_jump_index,
        "next-jump-value": result.next_jump_value,
        "theta-enclosure": _interval_doc(result.theta_enclosure),
        "theta-choices": [format_rational(c.upper_margin)
                          for c in result.certificates],
        "filler-values": [c.filler for c in result.certificates],
        "future-filler-bound": format_rational(result.future_filler_bound),
        "certificates": _json.Rows(
            ("index", "lower-margin", "upper-margin"), certificates),
        "verification-depth": len(result.a_prefix),
    }


def _cmd_construct(args) -> Report:
    from .construct import ConstructionError, TargetSequence, construct
    from .families import parse_family_spec
    if args.family is not None and args.repeat_last_delta:
        raise ValueError("--repeat-last-delta applies only to --a-file")
    if args.a_file is not None:
        values = _read_sequence_file(args.a_file)
        rule = "repeat-last-delta" if args.repeat_last_delta else None
        seq = TargetSequence.from_explicit(values, rule)
    else:
        seq = TargetSequence.from_family(parse_family_spec(args.family))
    try:
        result = construct(seq, positive_int(args.depth, "--depth"))
    except ConstructionError as exc:
        # a failed internal check: exit 2, as main gives malformed input
        raise ValueError(exc) from exc

    def certificates():
        # a row per index: each jump's pair, formatted once, over its plateau
        start = 1
        for jump in result.certificates:
            lower = format_rational(jump.lower_margin)
            upper = format_rational(jump.upper_margin)
            for index in range(start, jump.index + 1):
                yield index, lower, upper
            start = jump.index + 1

    def rows():
        for (index, lower, upper), a, b in zip(
                certificates(), result.a_prefix, result.b_prefix):
            yield index, a, b, lower, upper

    return Report(functools.partial(_construct_doc, result, certificates()),
                  ("n", "a", "b", "lower-margin", "upper-margin"), rows(),
                  csv_columns=("index", "a", "b", "lower-margin",
                               "upper-margin"),
                  before=_construct_summary(result))


def _census_report(rows: Iterator[tuple]) -> Report:
    """Summary of ``CensusRow``s, folded in the one pass that produces them.

    The fold is a ``Counter`` of each row's ``key``, the fields the summary
    reads, fed by ``map``: by each csv piece as it streams out, or by the
    whole row iterator for json and table, which hold no rows. The summary
    is read off its few keys.
    """
    from .uniqueness import CensusRow
    key = operator.itemgetter(*map(CensusRow._fields.index, (
        "open_unique", "open_case", "closed_unique", "closed_case",
        "open_agrees", "closed_agrees", "consequences_ok")))
    tally = Counter()

    def pieces() -> Iterator[list]:
        for piece in iter(lambda: list(itertools.islice(
                rows, _CSV_PIECE_ROWS)), []):
            tally.update(map(key, piece))
            yield piece

    def summary():
        tally.update(map(key, rows))
        items = tally.items()
        cases = Counter()
        for (_, open_case, _, closed_case, *_), n in items:
            cases[open_case] += n
            cases[closed_case] += n
        return {
            "pairs": tally.total(),
            "open-unique": sum(n for key, n in items if key[0]),
            "closed-unique": sum(n for key, n in items if key[2]),
            "disagreements": sum(n for key, n in items if not all(key[4:])),
            "cases": dict(sorted(cases.items())),
        }

    def lines():
        for key, value in summary().items():
            yield f"{key}: {value}"

    def exit_code():
        return EXIT_VERIFY if summary()["disagreements"] else EXIT_OK

    return Report(summary, rows=itertools.chain.from_iterable(pieces()),
                  csv_columns=CensusRow._fields, after=lines(),
                  exit=exit_code)


def _cmd_unique(args) -> Report:
    from .uniqueness import (necessary_uniqueness, pair_necessary_closed,
                             pair_uniqueness, sample_pairs,
                             sufficient_uniqueness, sweep,
                             uniqueness_consequences)
    if args.seed is not None and args.sample is None:
        raise ValueError("--seed applies only to --sample")
    if args.pair is not None:
        a = positive_int(args.pair[0], "--pair A", 2)
        a_next = positive_int(args.pair[1], "--pair A_NEXT", a + 1)
        verdicts = (("open", pair_uniqueness(a, a_next)),
                    ("closed", pair_necessary_closed(a, a_next)))
        consequences = uniqueness_consequences(a, a_next)
        lines = [f"{name}: unique={v.unique} k={v.k} case={v.case}"
                 for name, v in verdicts]
        return Report(
            lambda: {**{name: _verdict_doc(v) for name, v in verdicts},
                     "consequences": consequences},
            rows=((name, v.unique, v.k, v.case) for name, v in verdicts),
            csv_columns=("criterion", "unique", "k", "case"),
            after=lines + [f"consequences: {consequences}"])
    if args.a_file is not None:
        values = _read_sequence_file(args.a_file)
        suff, open_verdicts = sufficient_uniqueness(values)
        nec, closed_verdicts = necessary_uniqueness(values)
        # index, a, a', unique and case of the open verdict, then the closed
        rows = map(operator.add,
                   map(operator.itemgetter(0, 1, 2, 3, 5), open_verdicts),
                   map(operator.itemgetter(3, 5), closed_verdicts))

        def doc():
            from . import _json
            return {
                "sufficient": suff,
                "necessary": nec,
                "open-verdicts": _json.Rows(_VERDICT_KEYS, open_verdicts),
                "closed-verdicts": _json.Rows(_VERDICT_KEYS, closed_verdicts),
            }

        return Report(doc, ("index", "a", "a-next", "open-unique",
                            "open-case", "closed-unique", "closed-case"),
                      rows, after=(f"sufficient: {suff}", f"necessary: {nec}"))
    if args.range is not None:
        return _census_report(sweep(positive_int(args.range, "--range", 3)))
    return _census_report(
        sample_pairs(positive_int(args.sample, "--sample"),
                     positive_int(args.seed or 0, "--seed", 0)))


def _cmd_family(args) -> Report:
    from .families import _enclosure, parse_family_spec
    from .greedy import bracket_misses
    family = parse_family_spec(args.spec)
    # one target past the last term closes the last bracket
    a_vals, b_vals = family.terms(positive_int(args.terms, "--terms"))
    bracket_ok = not bracket_misses(a_vals, b_vals)
    enclosure = _enclosure(family, b_vals) if args.theta_enclosure else None

    def doc():
        doc = {
            "spec": family.spec_string(),
            "a": a_vals[:-1],
            "b": b_vals,
            "bracket-ok": bracket_ok,
        }
        if enclosure is not None:
            doc["theta-enclosure"] = _interval_doc(enclosure)
            doc["enclosure-width"] = format_rational(enclosure.width())
        return doc

    def after():
        yield f"bracket-ok: {bracket_ok}"
        if enclosure is not None:
            yield (f"theta in ({format_rational(enclosure.lo)}, "
                   f"{format_rational(enclosure.hi)})")

    return Report(doc, ("n", "a", "b"),
                  zip(range(1, args.terms + 1), a_vals, b_vals),
                  after=after())


def _classify_doc(report) -> dict:
    return {
        "n-terms": report.n_terms,
        "witness-counts": _counts_doc(report.witness_counts),
        "second-half-witness-counts": _counts_doc(
            report.second_half_witness_counts),
        "ratio-samples": [format_rational(r) for r in report.ratio_samples],
        "closed-form-limit": None if report.closed_form_limit is None
        else format_rational(report.closed_form_limit),
        "limit-exceeds-one": report.limit_exceeds_one,
        "verdict": report.verdict,
    }


def _cmd_classify(args) -> Report:
    from .diagnostics import DEFAULT_T_GRID, classify
    from .families import parse_family_spec
    a_values = _read_sequence_file(args.a_file)
    b_values = _read_sequence_file(args.b_file)
    t_grid = (tuple(map(parse_rational, args.t_grid.split(",")))
              if args.t_grid is not None else DEFAULT_T_GRID)
    family = None if args.family is None else parse_family_spec(args.family)
    report = classify(a_values, b_values, t_grid, family)
    rows = ((format_rational(t), c, s)
            for (t, c), (_, s) in zip(report.witness_counts,
                                      report.second_half_witness_counts))
    return Report(functools.partial(_classify_doc, report),
                  ("t", "witnesses", "second-half-witnesses"), rows,
                  after=(f"verdict: {report.verdict}",))


# ------------------------------------------------------------------ wiring

def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("table", "json", "csv"),
                     default="table")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every ``main``."""
    from .greedy import _SELECTIONS
    # an option is read by its full name only, never by a prefix of it
    parser = argparse.ArgumentParser(
        prog="unitfrac", allow_abbrev=False,
        description="Exact greedy and weak-greedy unit fraction expansions")
    commands = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser,
                                       allow_abbrev=False))

    p = commands.add_parser("expand", help="run a weak greedy expansion")
    p.add_argument("--theta", required=True, help="target in (0, 1], as P/Q")
    p.add_argument("--terms", type=parse_int, required=True)
    p.add_argument("--t", default="1", help="weakness level, rational >= 1")
    p.add_argument("--selection", choices=_SELECTIONS)
    p.add_argument("--last-greedy", action="store_true",
                   help="force the final term to the greedy choice")
    _add_format(p)
    p.set_defaults(func=_cmd_expand)

    p = commands.add_parser("verify",
                            help="replay a denominator file against theta")
    p.add_argument("--b-file", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--bracket", action="store_true",
                   help="also require each b inside its telescoping bracket")
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = commands.add_parser("construct",
                            help="build b hitting given greedy targets")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--a-file")
    source.add_argument("--family",
                        help="family spec, e.g. geometric:a=2,r=3")
    p.add_argument("--repeat-last-delta", action="store_true",
                   help="extend the file arithmetically past its end")
    p.add_argument("--depth", type=parse_int, required=True,
                   help="number of strict target increases to process")
    _add_format(p)
    p.set_defaults(func=_cmd_construct)

    p = commands.add_parser("unique",
                            help="forced-choice criteria and cross-checks")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pair", nargs=2, type=parse_int,
                      metavar=("A", "A_NEXT"))
    mode.add_argument("--a-file")
    mode.add_argument("--range", type=parse_int,
                      help="check all pairs up to this bound")
    mode.add_argument("--sample", type=parse_int, help="check random pairs")
    p.add_argument("--seed", type=parse_int,
                   help="seed of --sample's pairs, an integer >= 0 "
                        "(default 0)")
    _add_format(p)
    p.set_defaults(func=_cmd_unique)

    p = commands.add_parser("family", help="closed-form sequence families")
    p.add_argument("--spec", required=True)
    p.add_argument("--terms", type=parse_int, required=True)
    p.add_argument("--theta-enclosure", action="store_true",
                   help="also bound the full series sum")
    _add_format(p)
    p.set_defaults(func=_cmd_family)

    p = commands.add_parser("classify",
                            help="screen (a, b) data for producibility")
    p.add_argument("--a-file", required=True)
    p.add_argument("--b-file", required=True)
    p.add_argument("--t-grid", help="comma separated weakness levels")
    p.add_argument("--family",
                   help="declare the family the data came from")
    _add_format(p)
    p.set_defaults(func=_cmd_classify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _emit(args.func(args), args.format)
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that flushing
        # what is still buffered at exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE_CLOSED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
