"""unitfrac benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One run:

1. set-up: spawns a fresh interpreter several times and times each until
   ``unitfrac`` and ``unitfrac.cli`` are imported, each right after a bare
   interpreter spawn (``setup_s``, see below);
2. makes the request list from the seed (workloads.py) and writes its input
   files under ``.bench_build/``;
3. check pass: runs every request once, checks its output with code that
   does not call the producer, and keeps a digest of what it returned;
4. timed phase: replays the whole list ``passes`` times, where ``passes`` is
   ``--seconds`` over the workload's nominal pass time, so every run of a
   workload does the same work.  A timed request fails if it exits nonzero,
   raises, or returns other bytes than the checked pass;
5. with ``--trace 1``: one more pass with the tracer installed, which gives
   the per-layer metrics; spans are written to
   ``.bench_build/unitfrac-bench/trace-<workload>.{json,bin}``.

Timings are reported at a reference machine speed.  A shared VM can
change speed by 2x or more within a minute, as other guests on its host
come and go, which no amount of averaging inside one run removes.  So before every
timed request the client times a fixed reference slice of interpreter and
big-integer work (about 1 ms, untimed for the request), and each pass's
latencies are divided by that pass's median slice time over REF_SLICE_S.
The reference slice runs no unitfrac code, so a change to the program moves
the figures as much as it moves the raw timings.  Set-up is scaled the same
way by a bare interpreter spawn made just before each timed one.  The raw
figures are printed beside the scaled ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines above it repeat the metrics for a
reader, with the tail percentile, failure classes and digests of the
request list and of the outputs (equal digests on two runs with one seed
show both are deterministic).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "unitfrac-bench"

# Seconds one pass of each request list takes on a 2-vCPU 2.0 GHz Xeon VM
# with the code the benchmark was written against.  It fixes how many passes
# a run makes for --seconds, so every commit does the same work.
NOMINAL_PASS_S = {"census": 2.9, "deep": 2.5, "certify": 3.2}
SETUP_SPAWNS = 11
READY = b"ready\n"

# Median seconds of reference_slice() and of a bare interpreter spawn on
# that VM: the reference speed every timing is scaled to.
REF_SLICE_S = 0.00137
REF_BARE_S = 0.070
_REF_X, _REF_Y = 3 ** 5000 + 1, 7 ** 3500 + 3


def reference_slice() -> float:
    """Seconds a fixed piece of interpreter and big-integer work takes now."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(1, 300):
        acc += len(f"{k * 7919}/{k * k + 1}")
    math.gcd(_REF_X * _REF_Y + acc, _REF_Y * _REF_Y + _REF_X)
    return time.perf_counter() - t0


def _spawn_seconds(argv, env) -> float:
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line != READY or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {argv[-1]}")
    return elapsed


def measure_setup() -> tuple[float, float]:
    """Seconds from spawning an interpreter until unitfrac.cli is imported,
    with bytecode cached by one untimed spawn: the median of each spawn's
    ratio to a bare spawn made just before it, times REF_BARE_S, and the
    raw median."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    ready = "sys.stdout.write('ready\\n'); sys.stdout.flush()"
    bare = [sys.executable, "-c", "import sys; " + ready]
    full = [sys.executable, "-c", "import sys, unitfrac, unitfrac.cli; " + ready]
    ratios, times = [], []
    for i in range(SETUP_SPAWNS + 1):
        base = _spawn_seconds(bare, env)
        elapsed = _spawn_seconds(full, env)
        if i:
            ratios.append(elapsed / base)
            times.append(elapsed)
    return REF_BARE_S * statistics.median(ratios), statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value, percentile and samples beyond, at the highest percentile that
    has ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def check_pass(reqs, workloads):
    """Send every request once and check its output.

    A request that exits with the CLI's verification-failed code is a check
    failure as well: its output is checked for the reason, and fails even
    where the output carries no verdict.  Returns the digest each later
    replay must match (None where the check failed), the check failures,
    and the stdout bytes of the pass.
    """
    expected, mismatches, out_bytes = [], [], 0
    for req in reqs:
        outcome = workloads.execute(req)
        out_bytes += len(outcome.stdout.encode())
        reason = None
        if outcome.error in (None, workloads.VERIFY_FAILED):
            reason = workloads.check(req, outcome)
        if outcome.error == workloads.VERIFY_FAILED:
            reason = reason or "the CLI's own verification failed"
        if reason:
            mismatches.append(f"{req.describe()}: {reason}")
        expected.append(None if reason else workloads.fingerprint(outcome))
    return expected, mismatches, out_bytes


class Pass:
    """One replay of the request list, with every timing scaled to the
    reference speed by the pass's median reference slice."""

    def __init__(self):
        self.latencies: list[float] = []  # successful requests
        self.busy = 0.0                   # all requests
        self.slices: list[float] = []
        self.ok = 0

    @property
    def speed(self) -> float:
        """How much slower than the reference machine this pass ran."""
        return statistics.median(self.slices) / REF_SLICE_S

    def scaled_latencies(self) -> list[float]:
        speed = self.speed
        return [t / speed for t in self.latencies]

    def scaled_busy(self) -> float:
        return self.busy / self.speed


def run_pass(reqs, expected, workloads, errors) -> Pass:
    """Replay the list once, timing a reference slice before each request."""
    result = Pass()
    for req, digest in zip(reqs, expected):
        result.slices.append(reference_slice())
        t0 = time.perf_counter()
        outcome = workloads.execute(req)
        elapsed = time.perf_counter() - t0
        result.busy += elapsed
        if outcome.error is not None:
            errors[outcome.error] += 1
        elif digest is None:
            errors["check-failed"] += 1
        elif workloads.fingerprint(outcome) != digest:
            errors["output-differs"] += 1
        else:
            result.ok += 1
            result.latencies.append(elapsed)
    return result


def traced_pass(reqs, expected, workloads, workload: str) -> tuple[dict, float]:
    """One pass under the tracer; returns per-layer metrics and scaled req/s."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    result = Pass()
    try:
        for i, (req, digest) in enumerate(zip(reqs, expected)):
            result.slices.append(reference_slice())
            span = tracer.begin(i)
            t0 = time.perf_counter()
            outcome = workloads.execute(req)
            result.busy += time.perf_counter() - t0
            tracer.finish(span)
            result.ok += (outcome.error is None
                          and workloads.fingerprint(outcome) == digest)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics()
    spans = tracer.write(WORK / f"trace-{workload}")
    total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    print(f"traced pass: {spans} spans, {result.busy:.2f} s; self time by layer:")
    for k in sorted(k for k in layer if k.endswith(".self_s")):
        print(f"  {k:18s} {layer[k]:9.4f} s  {100 * layer[k] / total:5.1f} %")
    return layer, result.ok / result.scaled_busy()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "unitfrac" / "cli.py").is_file():
        print(f"error: no unitfrac sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # needs src on the path

    setup_s, raw_setup_s = measure_setup()
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        reqs = workloads.generate(args.workload, args.seed, Path(tmp))
        request_digest = workloads.request_digest(reqs, Path(tmp))
        expected, mismatches, out_bytes = check_pass(reqs, workloads)

        passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        errors: Counter = Counter()
        gc.collect()
        t0 = time.perf_counter()
        results = [run_pass(reqs, expected, workloads, errors)
                   for _ in range(passes)]
        wall = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        attempted = passes * len(reqs)
        ok = sum(r.ok for r in results)
        latencies = [t for r in results for t in r.scaled_latencies()]
        raw_latencies = [t for r in results for t in r.latencies]
        req_per_s = ok / sum(r.scaled_busy() for r in results)
        tail_s, tail_pct, beyond = tail(latencies)
        metrics = {
            "setup_s": (setup_s, "s"),
            "req_per_s": (req_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (tail_s * 1e3, "ms"),
            "success_ratio": (ok / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        raw = {
            "setup_s": raw_setup_s,
            "req_per_s": ok / sum(r.busy for r in results),
            "latency_p50_ms": statistics.median(raw_latencies) * 1e3,
            "latency_tail_ms": tail(raw_latencies)[0] * 1e3,
        }
        speeds = sorted(r.speed for r in results)
        output_digest = hashlib.sha256(
            b"".join(d or b"-" for d in expected)).hexdigest()[:16]
        print(f"workload {args.workload}  seed {args.seed}  "
              f"{len(reqs)} requests x {passes} passes  "
              f"wall {wall:.2f} s  request-digest {request_digest}  "
              f"output-digest {output_digest}")
        print(f"  pass speed vs reference: median {statistics.median(speeds):.3f}"
              f", {speeds[0]:.3f} to {speeds[-1]:.3f}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:16s} {value:12.4f} {unit}" + (
                f"   raw {raw[name]:.4f}" if name in raw else ""))
        print(f"  latency_tail_ms is p{tail_pct:.2f} of {len(latencies)} "
              f"samples, {beyond} beyond")
        print(f"  failed {attempted - ok} of {attempted}: " + (", ".join(
            f"{k} {v}" for k, v in sorted(errors.items())) or "none"))
        for line in mismatches:
            print(f"  CHECK FAILED {line}")

        if args.trace:
            layer, traced_req_per_s = traced_pass(reqs, expected, workloads,
                                                  args.workload)
            layer["cli.out_bytes"] = out_bytes
            layer["trace.overhead_req_per_s"] = req_per_s - traced_req_per_s
            metrics = {k: (v, _unit(k)) for k, v in layer.items()}

    print(json.dumps({
        "correct": not (mismatches or errors["output-differs"]
                        or errors[workloads.VERIFY_FAILED]),
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("req_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
