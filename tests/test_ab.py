"""``tools/ab.py`` runs one request list under two trees in one process.

An A/A run loads this tree a second time under another package name and
runs census's ``unique --pair`` requests, the cheapest of the workloads,
under both: the outputs agree, and one pass gives one time ratio, for
all requests and for the slowest group, which is ``unique --pair``.
"""
from __future__ import annotations

import collections
import importlib.util
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", REPO / "tools/ab.py")
ab = importlib.util.module_from_spec(_spec)
_path = sys.path[:]
_spec.loader.exec_module(ab)  # puts src/ and bench/ first on sys.path
sys.path[:] = _path


@pytest.fixture
def trees(monkeypatch):
    """This tree as the workloads see it, and again as ``unitfrac_aa``;
    the workloads' entry points and ``sys.modules`` are put back after."""
    for entry in ab.ENTRIES:
        monkeypatch.setattr(ab.workloads, entry, getattr(ab.workloads, entry))
    change = {entry: getattr(ab.workloads, entry) for entry in ab.ENTRIES}
    yield change, ab.load_tree(REPO, "unitfrac_aa")
    for name in [m for m in sys.modules if m.split(".")[0] == "unitfrac_aa"]:
        del sys.modules[name]


def pair_requests(tmp_path):
    reqs = ab.workloads.generate("census", 1, tmp_path)
    return [req for req in reqs if "--pair" in req.args]


def test_one_pass_a_a_on_census_pairs(trees, tmp_path):
    change, twin = trees
    assert twin["cli"] is not change["cli"]
    assert twin["cli"].__name__ == "unitfrac_aa.cli"
    reqs = pair_requests(tmp_path)
    assert len(reqs) == 6
    assert ab.first_difference(trees, reqs) is None
    whole, slowest = ab.report(trees, reqs, 1)
    assert re.fullmatch(r"change/parent time ratio: median (\d\.\d{3}), "
                        r"quartiles \1-\1, change faster in [01] of 1 "
                        "passes", whole)
    assert slowest == "slowest request group, unique --pair: " + whole


def test_groups_are_subcommand_and_first_option_or_policy(tmp_path):
    groups = {workload: collections.Counter(
        map(ab.group, ab.workloads.generate(workload, 1, tmp_path)))
        for workload in ("census", "certify")}
    assert groups["census"] == {"unique --range": 4, "unique --sample": 8,
                                "unique --a-file": 4, "unique --pair": 6}
    assert groups["certify"]["construct --family"] == 11
    assert groups["certify"]["construct --a-file"] == 2
    deep = [ab.workloads.Request("deep", (2, 3, kind, 0, 5))
            for kind in ("greedy", "ceil-t-a")]
    assert list(map(ab.group, deep)) == ["greedy", "ceil-t-a"]


def test_ratios_sum_the_chosen_requests():
    spent = [[[1.0, 2.0], [3.0, 1.0]], [[2.0, 2.0], [6.0, 2.0]]]
    assert ab.ratios(spent, [True, True]) == [4 / 3, 2.0]
    assert ab.ratios(spent, [True, False]) == [0.5, 1.0]
    assert ab.ratios(spent, [False, True]) == [3.0, 3.0]


def test_a_changed_output_is_named(trees, tmp_path):
    # a tree whose command prints nothing differs on the first request
    class Quiet:
        EXIT_VERIFY = 1

        @staticmethod
        def main(argv):
            return 0
    change, twin = trees
    reqs = pair_requests(tmp_path)
    assert ab.first_difference((change, {**twin, "cli": Quiet}),
                               reqs) is reqs[0]


def test_summary_reads_median_quartiles_and_signs():
    assert ab.summary([0.9, 1.0, 1.1, 1.2, 0.8]) == (
        "change/parent time ratio: median 1.000, quartiles 0.900-1.100, "
        "change faster in 2 of 5 passes")
