"""One input contract for every entry point.

A count, a sequence term or a pair member that is a float, a bool, or an
integer below its least value is refused with ValueError by every public
entry point, never run as a truncated value, a float or 1, and never
left to fail later as TypeError or AttributeError. So is a rational (a
target, a weakness level, a bound or an interval end) that is a float, a
bool or text: text becomes a number only through ``parse_int`` and
``parse_rational``, never through ``Fraction``'s own grammar.

The command line exits 0, 1 or 2 on any argv its grammar allows, with
nothing on stdout on exit 2, including integer text that ``int()`` would
take but the documented form does not ("1_0", "+5", Arabic-Indic
digits), and an option given by a prefix of its name.

Sizes stay small, so that each example runs in milliseconds: at most 12
terms, depth 20 and range 40. Sizes that run away (a large --terms,
--depth or --range) are left to the work-budget tests of ROADMAP item 5.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unitfrac.construct import TargetSequence, construct
from unitfrac.diagnostics import classify, shadow_bound_from_gap
from unitfrac.families import (
    ArithmeticFamily,
    FibonacciFamily,
    GeometricFamily,
    fibonacci_number,
    theta_partial,
)
from unitfrac.greedy import (
    WgaaPolicy,
    bracket_misses,
    greedy_expand,
    recover_shadow,
    wgaa_expand,
)
from unitfrac.rational import (
    RationalInterval,
    format_rational,
    greedy_denominator,
)
from unitfrac.uniqueness import (
    necessary_uniqueness,
    pair_necessary_closed,
    pair_uniqueness,
    sample_pairs,
    sufficient_uniqueness,
    sweep,
    uniqueness_consequences,
)

from test_cli_golden import run_main

HALF = Fraction(1, 2)
FAMILIES = (GeometricFamily(2, 3), ArithmeticFamily(2, 1), FibonacciFamily())

# each puts x where a count, a list entry or a pair member goes
ENTRY_POINTS = {
    "wgaa_expand": lambda x: wgaa_expand(HALF, WgaaPolicy.greedy(), x),
    "wgaa_expand min-admissible": lambda x: wgaa_expand(
        HALF, WgaaPolicy(selection="min-admissible"), x),
    "greedy_expand": lambda x: greedy_expand(HALF, x),
    "construct": lambda x: construct(
        TargetSequence.from_explicit([2, 3], "repeat-last-delta"), x),
    "TargetSequence.from_explicit": lambda x:
        TargetSequence.from_explicit([2, x]),
    "theta_partial": lambda x: theta_partial(GeometricFamily(2, 3), x),
    "GeometricFamily a0": lambda x: GeometricFamily(x, 3),
    "GeometricFamily r": lambda x: GeometricFamily(2, x),
    "ArithmeticFamily a0": lambda x: ArithmeticFamily(x, 1),
    "ArithmeticFamily d": lambda x: ArithmeticFamily(2, x),
    **{f"{type(f).__name__}.{method}": getattr(f, method)
       for f in FAMILIES for method in ("a", "b", "terms")},
    "sweep": sweep,
    "sample_pairs": lambda x: sample_pairs(x, 0),
    "pair_uniqueness a": lambda x: pair_uniqueness(x, 9),
    "pair_uniqueness a_next": lambda x: pair_uniqueness(2, x),
    "pair_necessary_closed a": lambda x: pair_necessary_closed(x, 9),
    "pair_necessary_closed a_next": lambda x: pair_necessary_closed(2, x),
    "uniqueness_consequences": lambda x: uniqueness_consequences(x, 9),
    "sufficient_uniqueness": lambda x: sufficient_uniqueness([2, x, 9]),
    "necessary_uniqueness": lambda x: necessary_uniqueness([2, x, 9]),
    "bracket_misses a": lambda x: bracket_misses([2, x, 5], [5, 9]),
    "bracket_misses b": lambda x: bracket_misses([2, 3, 5], [x, 9]),
    "recover_shadow": lambda x: recover_shadow([3, x], HALF),
    "classify a": lambda x: classify((2, x), (2, 3)),
    "classify b": lambda x: classify((2, 3), (x, 3)),
    "shadow_bound_from_gap": lambda x: shadow_bound_from_gap(
        [2, x], Fraction(3, 4), Fraction(1, 8)),
}

# a Fibonacci index, the terms a tail follows and a seed may be 0
FROM_ZERO = {
    "fibonacci_number": fibonacci_number,
    **{f"{type(f).__name__}.tail_bracket": f.tail_bracket for f in FAMILIES},
    "sample_pairs seed": lambda x: sample_pairs(1, x),
}

# each puts x where a rational goes, beside a value it takes there
RATIONAL_INPUTS = {
    "wgaa_expand theta": (
        lambda x: wgaa_expand(x, WgaaPolicy.greedy(), 2), HALF),
    "greedy_expand theta": (lambda x: greedy_expand(x, 2), HALF),
    "recover_shadow theta": (lambda x: recover_shadow([3, 7], x), HALF),
    "WgaaPolicy t": (lambda x: WgaaPolicy(t=x), Fraction(3, 2)),
    "WgaaPolicy.scaled t": (WgaaPolicy.scaled, Fraction(3, 2)),
    "classify t_grid": (
        lambda x: classify((2, 3), (2, 3), (1, x)), Fraction(3, 2)),
    "shadow_bound_from_gap theta": (
        lambda x: shadow_bound_from_gap([3], x, Fraction(1, 8)), HALF),
    "shadow_bound_from_gap tail_upper": (
        lambda x: shadow_bound_from_gap([2, 9], Fraction(3, 4), x),
        Fraction(1, 8)),
    "RationalInterval lo": (lambda x: RationalInterval(x, 1), HALF),
    "RationalInterval hi": (lambda x: RationalInterval(0, x), HALF),
    "format_rational": (format_rational, HALF),
    "greedy_denominator": (greedy_denominator, HALF),
}
# Fraction reads each of these, "1_0/3" from CPython 3.11 on
RATIONAL_TEXT = ("1/2", "١/٢", "1_0/3", "0.5")

FLOATS_AND_BOOLS = st.one_of(st.floats(), st.booleans())


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=20, deadline=None)
@given(x=st.one_of(FLOATS_AND_BOOLS, st.sampled_from([0, -1])))
@example(x=2.5)
@example(x=True)
@example(x=0)
@example(x=-1)
def test_bad_count_list_or_pair_raises_value_error(name, x):
    with pytest.raises(ValueError):
        ENTRY_POINTS[name](x)


@pytest.mark.parametrize("name", sorted(FROM_ZERO))
@settings(max_examples=20, deadline=None)
@given(x=st.one_of(FLOATS_AND_BOOLS, st.just(-1)))
@example(x=2.0)
@example(x=False)
@example(x=-1)
def test_bad_value_from_zero_raises_value_error(name, x):
    with pytest.raises(ValueError):
        FROM_ZERO[name](x)


@pytest.mark.parametrize("name", sorted(RATIONAL_INPUTS))
def test_rational_input_takes_an_exact_value(name):
    call, good = RATIONAL_INPUTS[name]
    call(good)


@pytest.mark.parametrize("name", sorted(RATIONAL_INPUTS))
@settings(max_examples=20, deadline=None)
@given(x=st.one_of(FLOATS_AND_BOOLS, st.sampled_from(RATIONAL_TEXT)))
@example(x=0.5)
@example(x=True)
@example(x="1/2")
@example(x="١/٢")
@example(x="1_0/3")
@example(x="0.5")
def test_rational_as_text_float_or_bool_raises_value_error(name, x):
    with pytest.raises(ValueError):
        RATIONAL_INPUTS[name][0](x)


# ----------------------------------------------------------- command line

ODD_TEXT = ("1_0", "+5", " 7", "٣", "", "x", "2.5", "0", "-1")
FILES = {
    "b": "3\n7\n43\n",
    "quadratic": "".join(f"{n * (n + 2)}\n" for n in range(1, 13)),
    "plateaus": "2\n2\n3\n3\n4\n",
    "geometric-a": "".join(f"{2 * 3 ** n}\n" for n in range(8)),
    "geometric-b": "".join(f"{3 ** n - 1}\n" for n in range(1, 9)),
    **{f"odd-{i}": f"3\n{text}\n" for i, text in enumerate(ODD_TEXT)},
    "blank": "3\n\n4\n",
    "empty": "",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("contract")
    paths = {"missing": str(directory / "missing.txt")}
    for name, text in FILES.items():
        (directory / f"{name}.txt").write_text(text, encoding="utf-8")
        paths[name] = str(directory / f"{name}.txt")
    return paths


def integer_text(high: int):
    return st.one_of(st.integers(-2, high).map(str), st.sampled_from(ODD_TEXT))


RATIONALS = st.sampled_from(["19/48", "1/2", "1", "2/3", "0", "5/4", "-1/2",
                             "1/0", "1_0/3", "١/٢", "x"])
LEVELS = st.sampled_from(["1", "3/2", "2", "1/2", "0.5"])
SPECS = st.sampled_from(["fibonacci", "geometric:a=2,r=3",
                         "arithmetic:a=3,d=2", "geometric:a=1,r=3",
                         "geometric:a=٢,r=3", "arithmetic:a=2,d=0",
                         "junk"])
FILE_NAMES = st.sampled_from(["missing", *FILES])


def flag(name, values):
    """The flag and its value, or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def switch(name):
    return st.sampled_from([[], [name]])


def joined(*parts):
    return st.tuples(*parts).map(lambda lists: sum(lists, []))


def argv_strategy():
    """argv for one subcommand; "@name" stands for the file of that name."""
    file_arg = FILE_NAMES.map(lambda name: "@" + name)
    expand = joined(
        st.just(["expand"]), RATIONALS.map(lambda v: ["--theta", v]),
        integer_text(12).map(lambda v: ["--terms", v]),
        flag("--t", LEVELS),
        flag("--selection", st.sampled_from(
            ["greedy", "ceil-t-a", "min-admissible"])),
        switch("--last-greedy"))
    verify = joined(
        st.just(["verify"]), file_arg.map(lambda v: ["--b-file", v]),
        RATIONALS.map(lambda v: ["--theta", v]), switch("--bracket"))
    construct_ = joined(
        st.just(["construct"]),
        st.one_of(SPECS.map(lambda v: ["--family", v]),
                  file_arg.map(lambda v: ["--a-file", v])),
        switch("--repeat-last-delta"),
        integer_text(20).map(lambda v: ["--depth", v]))
    unique = joined(
        st.just(["unique"]),
        st.one_of(
            st.tuples(integer_text(40), integer_text(40)).map(
                lambda pair: ["--pair", *pair]),
            file_arg.map(lambda v: ["--a-file", v]),
            integer_text(40).map(lambda v: ["--range", v]),
            integer_text(40).map(lambda v: ["--sample", v])),
        flag("--seed", integer_text(40)))
    family = joined(
        st.just(["family"]), SPECS.map(lambda v: ["--spec", v]),
        integer_text(12).map(lambda v: ["--terms", v]),
        switch("--theta-enclosure"))
    classify_ = joined(
        st.just(["classify"]), file_arg.map(lambda v: ["--a-file", v]),
        file_arg.map(lambda v: ["--b-file", v]),
        flag("--t-grid", st.sampled_from(["1,3/2", "2", "0", "", "x", "1_0"])),
        flag("--family", SPECS))
    command = st.one_of(expand, verify, construct_, unique, family, classify_)
    return joined(command, flag("--format",
                                st.sampled_from(["table", "json", "csv"])))


@settings(max_examples=150, deadline=None)
@given(argv=argv_strategy())
@example(argv=["expand", "--theta", "1/2", "--terms", "1_0"])
@example(argv=["expand", "--theta", "١/٢", "--terms", "2"])
@example(argv=["verify", "--b-file", "@odd-0", "--theta", "1/2"])
@example(argv=["unique", "--pair", "+5", "9"])
def test_cli_exits_0_1_or_2_and_prints_nothing_on_2(files, argv):
    argv = [files[arg[1:]] if arg.startswith("@") else arg for arg in argv]
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), (argv, err)
    if code == 2:
        assert out == "", argv
        assert err, argv


@pytest.mark.parametrize("text", ["1_0", "+5", "٣", "3.0", "7 7"])
def test_integer_text_is_ascii_digits_only(tmp_path, text):
    # int() reads each of these; the documented form reads none
    b_file = tmp_path / "b.txt"
    b_file.write_text(f"3\n{text}\n", encoding="utf-8")
    for argv in (
            ["expand", "--theta", "1/2", "--terms", text],
            ["expand", "--theta", f"{text}/9", "--terms", "2"],
            ["verify", "--b-file", str(b_file), "--theta", "1/2"],
            ["construct", "--family", "fibonacci", "--depth", text],
            ["unique", "--pair", "2", text],
            ["unique", "--range", text],
            ["unique", "--sample", text],
            ["unique", "--sample", "3", "--seed", text],
            ["family", "--spec", "fibonacci", "--terms", text]):
        assert run_main(argv)[:2] == (2, ""), argv
    # surrounding whitespace is stripped
    assert run_main(["unique", "--pair", "2", " 7 "])[0] == 0
