"""Write a checkout's benchmark record, BENCH_<pr>.json, or check the newest one.

    python3 tools/bench_record.py --pr N [--root DIR]
    python3 tools/bench_record.py --check [--root DIR]

The record reads the benchmark's command, run_seconds and workload names from the
checkout's BENCHMARK.json, and runs every workload as a black box from the checkout's root,
with seed 1 for run_seconds: once with --trace 0 and once with --trace 1. Each run gets PYTHONDONTWRITEBYTECODE=1, and
src/ivbounds/__pycache__ is removed before it, so every run compiles the package as a fresh
install's first run does and none leaves bytecode for the next. BENCH_<pr>.json holds each
workload's end-to-end metrics, the per-layer metrics of its traced run, the op counts,
`wc -l src/ivbounds/*.py` and the Python version. --root defaults to the checkout that
holds this script.

--check runs no benchmark: it exits 1 unless the newest BENCH_*.json (by number) parses and
holds every workload BENCHMARK.json names, each with both kinds of metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

SEED = 1


def _benchmark(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(root: Path, command: list[str], name: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """One benchmark run's result line, with the input profile line printed before it."""
    shutil.rmtree(root / "src" / "ivbounds" / "__pycache__", ignore_errors=True)
    argv = [*command, "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return {**json.loads(lines[-1]), "input_profile": json.loads(lines[-2]).get("input_profile")}


def src_lines(root: Path) -> dict[str, int]:
    """`wc -l src/ivbounds/*.py`: each file's newline count and their total."""
    counts = {str(p.relative_to(root)): p.read_bytes().count(b"\n")
              for p in sorted((root / "src" / "ivbounds").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def record(root: Path, pr: int) -> dict:
    spec = _benchmark(root)
    seconds = spec["run_seconds"]
    workloads = {}
    for w in spec["workloads"]:
        plain, traced = (run_workload(root, spec["command"], w["name"], SEED, seconds, trace)
                         for trace in (0, 1))
        workloads[w["name"]] = {
            "end_to_end": plain["metrics"], "per_layer": traced["metrics"],
            "ops": {"trace0": plain["attempted"], "trace1": traced["attempted"]},
            "failed": plain["failed"] + traced["failed"], "input_profile": plain["input_profile"],
        }
    return {"pr": pr, "seed": SEED, "run_seconds": seconds, "command": spec["command"],
            "python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "src_lines": src_lines(root), "workloads": workloads}


def newest(root: Path) -> Path | None:
    records = [(int(p.stem[6:]), p) for p in root.glob("BENCH_*.json") if p.stem[6:].isdigit()]
    return max(records)[1] if records else None


def check(root: Path) -> str:
    """What is wrong with the newest record, or '' if nothing is."""
    path = newest(root)
    if path is None:
        return f"no BENCH_<pr>.json in {root}"
    try:
        workloads = dict(json.loads(path.read_text(encoding="utf-8"))["workloads"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"{path.name}: unreadable record: {exc!r}"
    for w in _benchmark(root)["workloads"]:
        entry = workloads.get(w["name"])
        if not isinstance(entry, dict) or not all(entry.get(k) for k in ("end_to_end", "per_layer")):
            return f"{path.name}: no end-to-end and per-layer metrics for workload {w['name']!r}"
    return ""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    p.add_argument("--check", action="store_true")
    p.add_argument("--pr", type=int)
    args = p.parse_args(argv)
    root = args.root.resolve()
    if args.check:
        error = check(root)
        if error:
            print(error, file=sys.stderr)
            return 1
        print(f"{newest(root).name}: every workload recorded")
        return 0
    if args.pr is None:
        p.error("--pr is required to write a record")
    out = root / f"BENCH_{args.pr}.json"
    result = record(root, args.pr)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
