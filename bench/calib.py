"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose per-core speed moves by tens of
percent within seconds. On a 2-vCPU x86-64 host, a cold derivation of the
registry took a median of 321 ms in one 15-second stretch and 448 ms in
another. Process CPU time moved with wall time, so neither gives steady
figures. Every timed stretch of work is therefore bracketed by two
samples of the fixed workload below, taken on the same CPU: in the same
process, or in the parent pinned to the CPU of the child it waits for.
The work's time is scaled by REFERENCE_MS / mean(before, after). The
speed moves within a second, so the samples must be right next to the
work; a median over a longer window of samples tracked it worse.

The sample compiles a synthetic module, which is allocation-heavy like
an import, then runs a short Fraction loop, which is like the exact
arithmetic in ivbounds. It uses only the standard library, so no change
to ivbounds can move it. A time scaled this way is the time the work
would take on a host where one sample takes REFERENCE_MS.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# A round figure inside the range of run medians of one sample (about 7
# to 16 ms) seen on the 2-vCPU x86-64 host, Python 3.11.7, where the
# benchmark was written.
REFERENCE_MS = 10.0

_SOURCE = "\n".join(
    f"def f{i}(a, b=1, *c, **d):\n"
    f"    x = [a + b * {i} for _ in range(3)]\n"
    f"    return {{'k{i}': x, 'v': (a, b, c, d)}}\n"
    for i in range(100)
)


def sample_ms() -> float:
    """Time one pass of the fixed calibration workload, in milliseconds."""
    t0 = perf_counter()
    code = compile(_SOURCE, "<calibration>", "exec")
    acc = Fraction(0)
    for i in range(1, 401):
        acc += Fraction(i % 97, i % 89 + 1) * Fraction(3, 7)
    ms = (perf_counter() - t0) * 1000
    if acc <= 0 or code is None:
        raise AssertionError("calibration workload lost its result")
    return ms


def scale(before: float, after: float) -> float:
    """Factor that turns a time bracketed by these two samples into reference time."""
    return 2 * REFERENCE_MS / (before + after)
