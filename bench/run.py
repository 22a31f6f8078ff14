"""Benchmark runner for ivbounds. Run from the root of a checkout:

    python3 bench/run.py --workload {derive,analyze,oracle,cli} --seed N --seconds S --trace {0,1}

Builds the workload's inputs from the seed, sets up, then runs operations
in a closed loop for S seconds, checking every output. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. See bench/README.md for what each workload and metric means.

The program under test is always the checkout's own src/ivbounds; when it
is missing the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calib
from workloads import WORKLOADS, profile

SETUP_SAMPLES = 3
# Ops timed in this process are bracketed by calibration samples at least this far apart.
BRACKET_S = 0.1
WORK = Path(__file__).resolve().parent / ".work"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def setup_in_child(root: Path, args) -> float:
    """One more setup, timed inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ivbounds" / "__init__.py").is_file():
        print(f"error: no ivbounds package under {src}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and, by inheritance, its children: at
        # most one of them computes at a time, and calibration samples
        # taken here then describe the CPU the children run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(root, work, args, WORKLOADS[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def timed_setup(workload) -> float:
    """Run the workload's setup; its time in reference seconds (see calib.py)."""
    before = statistics.median(calib.sample_ms() for _ in range(3))
    t0 = perf_counter()
    workload.setup()
    seconds = perf_counter() - t0
    after = statistics.median(calib.sample_ms() for _ in range(3))
    return seconds * calib.scale(before, after)


class Measurement:
    """Calibrated op times of one run, kept apart for untraced and traced ops."""

    def __init__(self):
        self.times = {False: [], True: []}  # calibrated op milliseconds
        self.busy = {False: 0.0, True: 0.0}  # calibrated loop-iteration seconds
        self.scales = {False: [], True: []}
        self.done = {False: 0, True: 0}
        self.failed = 0

    def record(self, traced, ms, wall, k):
        self.times[traced].append(ms * k)
        self.busy[traced] += wall * k
        self.scales[traced].append(k)

    def ops_per_s(self, traced):
        return len(self.times[traced]) / self.busy[traced]


def measure(workload, seconds: float, tracer) -> tuple[Measurement, dict | None, int]:
    """Run ops for ``seconds``; with a tracer, every other op is traced.

    Returns the measurement and the tracer's totals at the end of the
    last whole deck of traced ops, with the number of traced ops in it.
    """
    m = Measurement()
    pending = []  # ops timed here since the last calibration sample
    last_sample = calib.sample_ms()
    deck_snapshot, deck_ops = None, 0
    t_sample = start = perf_counter()
    while perf_counter() - start < seconds or not m.done[False] or (tracer is not None and not m.done[True]):
        # Alternating untraced and traced ops makes the difference between
        # the two halves the tracing overhead.
        traced = tracer is not None and m.done[False] > m.done[True]
        item = workload.items[m.done[traced] % len(workload.items)]
        t_op = perf_counter()
        child_scale = None
        try:
            ms, error, child_scale = workload.op(item, tracer if traced else None)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            ms, error = (perf_counter() - t_op) * 1000, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t_op
        m.done[traced] += 1
        if child_scale is not None:
            m.record(traced, ms, wall, child_scale)
        else:
            pending.append((traced, ms, wall))
            if perf_counter() - t_sample >= BRACKET_S:
                sample = calib.sample_ms()
                for op in pending:
                    m.record(*op, calib.scale(last_sample, sample))
                pending.clear()
                last_sample, t_sample = sample, perf_counter()
        if traced and m.done[True] % workload.deck_size == 0:
            deck_snapshot, deck_ops = tracer.snapshot(), m.done[True]
        if error is not None:
            m.failed += 1
            if m.failed <= 5:
                print(f"op failed: {error}", file=sys.stderr)
    if pending:
        sample = calib.sample_ms()
        for op in pending:
            m.record(*op, calib.scale(last_sample, sample))
    return m, deck_snapshot, deck_ops


def per_layer(workload, m: Measurement, snapshot: dict | None, deck_ops: int) -> dict:
    """Per traced op, over whole decks of traced ops only."""
    from tracer import COUNTER_NAMES, SPAN_NAMES, Tracer

    totals = Tracer()
    if snapshot is not None:
        totals.merge(snapshot)
    n = max(deck_ops, 1)
    k = statistics.median(m.scales[True])
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (totals.calls[name] / n, "count")
        out[f"{name}.self_ms"] = (totals.self_ns[name] / 1e6 / n * k, "ms")
    for name in COUNTER_NAMES:
        if name.endswith("_ms"):
            out[name] = (totals.counters[name] / n * k, "ms")
        else:
            out[name] = (totals.counters[name] / n, "count")
    items = [workload.items[j % len(workload.items)] for j in range(deck_ops)]
    for name, value in profile(map(workload.describe, items)).items():
        out[name] = (value, "digits" if name.endswith("digits") else "share")
    plain, traced = m.times[False], m.times[True]
    out["trace_overhead.ops_per_s"] = (m.ops_per_s(True) - m.ops_per_s(False), "1/s")
    for q in (50, 90):
        out[f"trace_overhead.op_ms.p{q}"] = (quantile(traced, q) - quantile(plain, q), "ms")
    all_scales = m.scales[False] + m.scales[True]
    out["host.calibration_ms"] = (calib.REFERENCE_MS / statistics.median(all_scales), "ms")
    return out


def run(root: Path, work: Path, args, workload_cls) -> int:
    workload = workload_cls(root, args.seed, work)
    own_setup_s = timed_setup(workload)
    if args.setup_only:
        print(repr(own_setup_s))
        return 0
    import ivbounds

    if Path(ivbounds.__file__).resolve().parent != (root / "src" / "ivbounds").resolve():
        print(f"error: imported ivbounds from {ivbounds.__file__}, not this checkout", file=sys.stderr)
        return 2
    setup_samples = [own_setup_s] + [setup_in_child(root, args) for _ in range(SETUP_SAMPLES - 1)]

    from tracer import Tracer

    m, snapshot, deck_ops = measure(workload, args.seconds, Tracer() if args.trace else None)
    attempted = m.done[False] + m.done[True]
    ran = [workload.items[j % len(workload.items)] for flag in (False, True) for j in range(m.done[flag])]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "ops": attempted,
                      "input_profile": profile(map(workload.describe, ran))}))
    if args.trace:
        metrics = per_layer(workload, m, snapshot, deck_ops)
    else:
        ms = m.times[False]
        metrics = {
            "ops_per_s": (m.ops_per_s(False), "1/s"),
            "op_ms.p50": (quantile(ms, 50), "ms"),
            "op_ms.p90": (quantile(ms, 90), "ms"),
            "success_rate": ((attempted - m.failed) / attempted, "ratio"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    print(json.dumps({
        "correct": m.failed == 0, "attempted": attempted, "failed": m.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
