"""tools/bench_record.py: the benchmark record it writes, and its check of the newest one."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# A stand-in for bench/run.py: the profile line, then a result line whose metrics tell how it ran.
FAKE_RUN = """
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
kind = "per_layer" if args["--trace"] == "1" else "end_to_end"
print(json.dumps({"workload": args["--workload"], "input_profile": {"seed": int(args["--seed"])}}))
metrics = {kind: {"value": 1, "unit": "count"},
           "bytecode_off": {"value": os.environ.get("PYTHONDONTWRITEBYTECODE") == "1", "unit": "flag"},
           "no_pycache": {"value": not os.path.exists("src/ivbounds/__pycache__"), "unit": "flag"},
           "seconds": {"value": float(args["--seconds"]), "unit": "s"}}
os.makedirs("src/ivbounds/__pycache__", exist_ok=True)  # as a run without the variable would
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
"""


def fake_checkout(tmp_path: Path, workloads=("derive", "analyze")) -> Path:
    (tmp_path / "src" / "ivbounds").mkdir(parents=True)
    (tmp_path / "src" / "ivbounds" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "run.py").write_text(FAKE_RUN)
    spec = {"command": [sys.executable, "run.py"], "run_seconds": 2,
            "workloads": [{"name": name} for name in workloads]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    return tmp_path


def test_record_runs_every_workload_traced_and_untraced_without_bytecode(tmp_path):
    root = fake_checkout(tmp_path)
    assert bench_record.main(["--root", str(root), "--pr", "7"]) == 0
    record = json.loads((root / "BENCH_7.json").read_text())
    assert record["src_lines"] == {"src/ivbounds/a.py": 2, "total": 2}
    assert record["run_seconds"] == 2 and record["python"]
    assert list(record["workloads"]) == ["derive", "analyze"]
    for entry in record["workloads"].values():
        assert entry["ops"] == {"trace0": 3, "trace1": 3} and entry["failed"] == 0
        assert entry["input_profile"] == {"seed": 1}
        for kind in ("end_to_end", "per_layer"):
            metrics = entry[kind]
            assert kind in metrics and metrics["seconds"]["value"] == 2
            assert metrics["bytecode_off"]["value"] and metrics["no_pycache"]["value"]
    assert bench_record.check(root) == ""


def test_check_reads_the_newest_record_and_names_a_missing_workload(tmp_path):
    root = fake_checkout(tmp_path, ("derive", "analyze", "cli"))
    full = {"workloads": {name: {"end_to_end": {"m": 1}, "per_layer": {"m": 1}}
                          for name in ("derive", "analyze", "cli")}}
    (root / "BENCH_9.json").write_text(json.dumps(full))
    assert bench_record.check(root) == ""
    del full["workloads"]["cli"]
    (root / "BENCH_10.json").write_text(json.dumps(full))  # newer by number, not by name
    assert bench_record.check(root) == "BENCH_10.json: no end-to-end and per-layer metrics for workload 'cli'"
    (root / "BENCH_11.json").write_text("{")
    assert bench_record.check(root).startswith("BENCH_11.json: unreadable record: ")
    assert bench_record.main(["--root", str(root), "--check"]) == 1

