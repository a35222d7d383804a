"""Paired in-process A/B: this checkout's unitfrac against a parent tree.

    python3 tools/ab.py --parent DIR --workload certify --seed 1 --passes 12

DIR holds the parent's sources as a checkout does, the package at
DIR/src/unitfrac; ``git archive <commit> | tar -x -C DIR`` makes one.
Both trees run in one process: this checkout's ``src/unitfrac`` as
``unitfrac``, and DIR's beside it under another package name. The
requests are ``bench/workloads.py``'s for the workload and seed, and each
runs through ``workloads.execute`` with that module's globals ``cli``,
``greedy`` and ``diagnostics`` pointed at one tree or the other.

First each request runs once under each tree, and both must give the same
``workloads.fingerprint``; otherwise the tool names the first request that
differs and exits 1. Then every pass runs each request under both trees,
alternating which goes first from one request to the next and from one
pass to the next, and sums each tree's time. The tool prints the median
of the passes' change/parent time ratios, their quartiles, and in how
many passes the change was faster. It prints the same again for the
request group with the largest parent time. A request's group is its
subcommand and first option, as ``unique --a-file`` or ``construct
--family``, or a deep request's policy kind.

Which tool answers which question: ``bench/run.py`` runs one tree per
process and gates ``BENCHMARK.json``'s bounds; it alone sees ``setup_s``
and ``peak_rss_mb``, since here both trees share one interpreter and one
heap. This tool is the evidence that a change is level with its parent,
or faster: each pair of timings is taken a moment apart, so the drift of
a shared machine falls on both. An A/A run, DIR holding this same tree,
shows the spread of the ratio when nothing changed.
"""
import argparse
import collections
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
import workloads  # noqa: E402  (needs src and bench on the path)

ENTRIES = ("cli", "greedy", "diagnostics")


def load_tree(root: Path, name: str) -> dict:
    """The workload entry modules of root/src/unitfrac, imported as the
    package ``name``."""
    package = root / "src" / "unitfrac"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return {entry: importlib.import_module(f"{name}.{entry}")
            for entry in ENTRIES}


def timed(tree: dict, req) -> tuple[float, "workloads.Outcome"]:
    vars(workloads).update(tree)
    start = time.perf_counter()
    outcome = workloads.execute(req)
    return time.perf_counter() - start, outcome


def first_difference(trees, reqs):
    """The first request whose outputs differ between the trees, or None."""
    for req in reqs:
        if len({workloads.fingerprint(timed(tree, req)[1])
                for tree in trees}) > 1:
            return req
    return None


def group(req) -> str:
    """The subcommand and first option of a cli request, or the policy
    kind of a deep one."""
    return req.args[2] if req.kind == "deep" else " ".join(req.args[:2])


def timings(trees, reqs, passes: int) -> list[list[list[float]]]:
    """Pass by pass, each request's time under trees[0] and trees[1]."""
    out = []
    for p in range(passes):
        gc.collect()
        spent = [[0.0, 0.0] for _ in reqs]
        for i, req in enumerate(reqs):
            for k in ((0, 1), (1, 0))[(i + p) % 2]:
                spent[i][k] = timed(trees[k], req)[0]
        out.append(spent)
    return out


def ratios(spent, chosen) -> list[float]:
    """The time of trees[0] over that of trees[1], pass by pass, summed
    over the requests at the true places of ``chosen``."""
    out = []
    for times in spent:
        picked = [t for t, keep in zip(times, chosen) if keep]
        out.append(sum(t[0] for t in picked) / sum(t[1] for t in picked))
    return out


def report(trees, reqs, passes: int) -> list[str]:
    """The ratio summary of all requests, then of the slowest group."""
    spent = timings(trees, reqs, passes)
    parent = collections.Counter()
    for times in spent:
        for req, (_, t) in zip(reqs, times):
            parent[group(req)] += t
    [(slowest, _)] = parent.most_common(1)
    in_group = [group(req) == slowest for req in reqs]
    return [summary(ratios(spent, [True] * len(reqs))),
            f"slowest request group, {slowest}: "
            + summary(ratios(spent, in_group))]


def summary(values: list[float]) -> str:
    q1, median, q3 = (statistics.quantiles(values, method="inclusive")
                      if len(values) > 1 else values * 3)
    faster = sum(x < 1 for x in values)
    return (f"change/parent time ratio: median {median:.3f}, quartiles "
            f"{q1:.3f}-{q3:.3f}, change faster in {faster} of "
            f"{len(values)} passes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if not (args.parent / "src" / "unitfrac" / "__init__.py").is_file():
        parser.error(f"no src/unitfrac under {args.parent}")
    change = {entry: getattr(workloads, entry) for entry in ENTRIES}
    trees = (change, load_tree(args.parent, "unitfrac_parent"))
    with tempfile.TemporaryDirectory() as work:
        reqs = workloads.generate(args.workload, args.seed, Path(work))
        differs = first_difference(trees, reqs)
        if differs is not None:
            print(f"outputs differ: {differs.describe()}", file=sys.stderr)
            return 1
        print(f"{args.workload}, seed {args.seed}: {len(reqs)} requests, "
              "same outputs under both trees")
        print(*report(trees, reqs, args.passes), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
