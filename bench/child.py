"""Fresh-interpreter operations for the derive and cli workloads.

    python3 bench/child.py derive ORDER [--trace]
        ORDER is a comma-separated list of registry names. Imports
        ivbounds, then times a cold derive of each name (scenario_hull for
        a name without a target) and prints one JSON line with the time,
        its calibration scale (each derivation is bracketed by calibration
        samples), a SHA-256 of each result's to_json_dict() and, with
        --trace, the tracer's totals.

    python3 bench/child.py cli TRACE_OUT ARG...
        Times the import of ivbounds.cli, installs the tracer, runs
        ivbounds.cli.entry(ARG...) with its normal stdout, writes the
        tracer's totals to TRACE_OUT and exits with entry's code.

ivbounds is found through PYTHONPATH, which the benchmark sets to the
checkout's src directory.
"""

from __future__ import annotations

# Only sys and time before ivbounds is imported, so cli.import_ms sees a
# cold import of everything ivbounds needs.
import sys
from time import perf_counter, perf_counter_ns


def digest(obj) -> str:
    import hashlib
    import json

    text = json.dumps(obj.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def derive_op(order: list[str], trace: bool) -> dict:
    import ivbounds
    from ivbounds import bounds

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import calib

    # Each derivation is bracketed by calibration samples; see calib.py.
    results = {}
    op_ms = ref_ms = 0.0
    before = calib.sample_ms()
    for name in order:
        t0 = perf_counter()
        if ivbounds.get_scenario(name).causal_target is None:
            results[name] = bounds.scenario_hull(name)
        else:
            results[name] = bounds.derive(name)
        ms = (perf_counter() - t0) * 1000
        after = calib.sample_ms()
        op_ms += ms
        ref_ms += ms * calib.scale(before, after)
        before = after
    if tracer is not None:
        tracer.uninstall()
    counts = {}
    for name, obj in results.items():
        if isinstance(obj, ivbounds.BoundSet):
            counts[name] = [len(obj.observable_tests), len(obj.lower_forms), len(obj.upper_forms)]
        else:
            counts[name] = [obj.affine_dimension, len(obj.facets)]
    return {
        "op_ms": op_ms,
        "scale": ref_ms / op_ms,
        "sha256": {name: digest(obj) for name, obj in results.items()},
        "counts": counts,
        "trace": None if tracer is None else tracer.snapshot(),
    }


def cli_op(trace_out: str, argv: list[str]) -> int:
    t0 = perf_counter_ns()
    from ivbounds import cli

    import_ms = (perf_counter_ns() - t0) / 1e6
    from tracer import Tracer

    tracer = Tracer()
    tracer.counters["cli.import_ms"] += import_ms
    tracer.install()
    try:
        code = cli.entry(argv)
    finally:
        tracer.uninstall()
        import json

        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["derive"] and len(argv) in (2, 3):
        import json

        print(json.dumps(derive_op(argv[1].split(","), argv[2:] == ["--trace"])))
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 3:
        return cli_op(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
