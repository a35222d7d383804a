"""Determinism and seed check for the benchmark.

    python3 bench/selfcheck.py [--seed N] [--workload NAME ...]

For each workload, from the root of a source checkout:

- two runs on one seed must print the same request digest and the same
  output digest, that is the same request list and the same stdout bytes;
- a run on the next seed must agree with the first run on every end-to-end
  metric within that metric's bound in BENCHMARK.json, so a figure can be
  re-checked on a seed it was not tuned on.

Exits 1 if any check fails.
"""
from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DIGESTS = re.compile(r"request-digest (\w+)\s+output-digest (\w+)")


def run(workload: str, seed: int, seconds: int) -> tuple[tuple[str, str], dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    digests = _DIGESTS.search(proc.stdout)
    if digests is None:
        raise RuntimeError(f"no digests in the output of {workload}")
    return digests.groups(), json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload:
        digests, first = run(workload, args.seed, spec["run_seconds"])
        again, _ = run(workload, args.seed, 1)
        _, other = run(workload, args.seed + 1, spec["run_seconds"])
        same = digests == again
        ok &= same
        print(f"{workload}: seed {args.seed} twice: "
              f"{'same' if same else 'DIFFERENT'} requests and outputs "
              f"{digests} {again}")
        for name, bound in bounds.items():
            a = first["metrics"][name]["value"]
            b = other["metrics"][name]["value"]
            change = abs(b - a) / a
            steady = change <= bound
            ok &= steady
            print(f"  {name:16s} seed {args.seed} {a:10.4f}  seed "
                  f"{args.seed + 1} {b:10.4f}  {100 * change:5.1f} % "
                  f"(bound {100 * bound:.0f} %){'' if steady else '  UNSTEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
