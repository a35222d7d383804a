"""The result records, value types and families keep their contract.

Results are immutable named tuples with the field names and order they
always had. The three validated value types check their fields however
a value is built, through ``_make`` and ``_replace`` too. Families are
immutable and compare, hash, print, copy and pickle by their spec.
"""
from __future__ import annotations

import copy
import itertools
import pickle
from fractions import Fraction

import pytest

from unitfrac.construct import TargetSequence, construct
from unitfrac.diagnostics import (
    classify,
    greedy_ratio_checks,
    scaled_run_ratio_checks,
)
from unitfrac.families import (
    ArithmeticFamily,
    FibonacciFamily,
    GeometricFamily,
    parse_family_spec,
)
from unitfrac.greedy import (
    WgaaPolicy,
    greedy_expand,
    recover_shadow,
    wgaa_expand,
)
from unitfrac.rational import RationalInterval
from unitfrac.uniqueness import pair_uniqueness, sweep

FIELDS = {
    "RationalInterval": ("lo", "hi"),
    "WgaaPolicy": ("t", "selection"),
    "WeakGreedyRun": ("theta", "policy", "a", "b", "residuals"),
    "ShadowReplay": ("a", "residuals", "first_weak_violation"),
    "RatioCheck": ("index", "lower_holds", "upper_holds"),
    "GreedyGrowthCheck": ("index", "holds"),
    "ClassificationReport": (
        "n_terms", "witness_counts", "second_half_witness_counts",
        "ratio_samples", "closed_form_limit", "limit_exceeds_one",
        "verdict"),
    "TargetSequence": ("given", "tail"),
    "JumpCertificate": ("index", "filler", "lower_margin", "upper_margin"),
    "ConstructionResult": (
        "a_prefix", "b_prefix", "next_jump_index", "next_jump_value",
        "theta_enclosure", "future_filler_bound", "certificates"),
    "UniquenessVerdict": ("index", "a", "a_next", "unique", "k", "case"),
    "CensusRow": (
        "a", "a_next", "open_unique", "open_case", "open_k", "open_count",
        "open_agrees", "closed_unique", "closed_case", "closed_k",
        "closed_count", "closed_agrees", "consequences_ok"),
}
FAMILIES = (GeometricFamily(2, 3), GeometricFamily(3, 2),
            ArithmeticFamily(2, 3), ArithmeticFamily(2, 1),
            FibonacciFamily())


def _instances() -> dict:
    """One value of each public record and family type, by type name."""
    run = wgaa_expand(Fraction(2, 3), WgaaPolicy.scaled(Fraction(2)), 3)
    targets = TargetSequence.from_explicit([2, 3], "repeat-last-delta")
    result = construct(targets, 2)
    values = [
        RationalInterval(1, 2), run.policy, run,
        recover_shadow([2, 7], Fraction(2, 3)),
        scaled_run_ratio_checks(run)[0],
        greedy_ratio_checks(greedy_expand(Fraction(2, 3), 3))[0],
        classify([2, 3], [3, 4]), targets, result.certificates[0], result,
        pair_uniqueness(2, 7), next(sweep(3)), *FAMILIES]
    return {type(v).__name__: v for v in values}


def test_record_fields():
    records = _instances()
    for name, fields in FIELDS.items():
        assert records[name]._fields == fields, name


@pytest.mark.parametrize("name", [*FIELDS, "GeometricFamily",
                                  "ArithmeticFamily", "FibonacciFamily"])
def test_fields_cannot_be_set(name):
    value = _instances()[name]
    field = FIELDS[name][0] if name in FIELDS else "a0"
    with pytest.raises(AttributeError):
        setattr(value, field, 5)
    with pytest.raises(AttributeError):
        delattr(value, field)


BAD_VALUES = [
    # the constructor's call, and the fields _make and _replace are given
    (lambda: RationalInterval(1, 1), RationalInterval(1, 2),
     {"hi": Fraction(1)}),
    (lambda: WgaaPolicy(t=True), WgaaPolicy.scaled(Fraction(2)),
     {"t": True}),
    (lambda: WgaaPolicy(t=Fraction(1, 2)), WgaaPolicy.scaled(Fraction(2)),
     {"t": Fraction(1, 2)}),
    (lambda: WgaaPolicy(selection="nope"), WgaaPolicy.scaled(Fraction(2)),
     {"selection": "nope"}),
    (lambda: TargetSequence((2, 0)), TargetSequence((2,)),
     {"given": (2, 0)}),
    (lambda: TargetSequence((2,), "arithmetic:a=3,d=1"),
     TargetSequence((2,), ArithmeticFamily(3, 1)),
     {"tail": "arithmetic:a=3,d=1"}),
]


@pytest.mark.parametrize("build, good, change", BAD_VALUES)
def test_make_and_replace_check_like_the_constructor(build, good, change):
    with pytest.raises(ValueError) as direct:
        build()
    fields = good._asdict() | change
    with pytest.raises(ValueError) as made:
        type(good)._make(fields.values())
    with pytest.raises(ValueError) as replaced:
        good._replace(**change)
    assert str(made.value) == str(replaced.value) == str(direct.value)


def test_make_and_replace_convert_like_the_constructor():
    iv = RationalInterval._make((1, 2))._replace(hi=3)
    assert iv == (Fraction(1), Fraction(3))
    assert type(iv) is RationalInterval and type(iv.hi) is Fraction
    assert WgaaPolicy()._replace(t=2).t == Fraction(2)


def test_policy_defaults():
    assert WgaaPolicy() == (Fraction(1), "greedy")
    assert WgaaPolicy.scaled(2) == (Fraction(2), "ceil-t-a")


def test_families_compare_by_spec():
    assert GeometricFamily(2, 3) == parse_family_spec("geometric:a=2,r=3")
    assert GeometricFamily(2, 3) != ArithmeticFamily(2, 3)
    assert GeometricFamily(2, 3) != "geometric:a=2,r=3"
    for f, g in itertools.product(FAMILIES, repeat=2):
        same = f.spec_string() == g.spec_string()
        assert (f == g) is same and (f != g) is not same
        assert same <= (hash(f) == hash(g))
    assert len(set(FAMILIES) | {GeometricFamily(2, 3)}) == len(FAMILIES)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.spec_string())
def test_family_repr_copy_and_pickle(family):
    assert family.spec_string() in repr(family)
    for twin in (copy.copy(family), copy.deepcopy(family),
                 pickle.loads(pickle.dumps(family))):
        assert type(twin) is type(family) and twin == family
