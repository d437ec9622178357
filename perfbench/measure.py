"""Machine-speed calibration and the order statistics the benchmark reports.

Raw wall time on a shared machine swings by a fifth between identical runs,
so every timing is divided by a reference measured right beside it and
multiplied back by a frozen nominal value, which keeps its unit:

* in-process timings by ``reference_time()``, a pure-Python loop that
  touches no ``chordgroups`` code or state, run between rounds;
* process timings by the wall time of a bare ``python -c pass`` launched
  right before the process;
* import timings by the time a fresh interpreter, started right before,
  takes to import ``REFERENCE_IMPORTS``, a fixed set of standard modules.
  Imports read files and unmarshal code, and they speed up and slow down
  with the machine differently from the pure-Python loop.

The nominal values are the medians of those references on the machine the
benchmark was defined on (2-core x86-64 VM, Python 3.11.7); they only fix
the scale, so that calibrated values read as seconds on that machine.
"""

from __future__ import annotations

import math
import time

REF_NOMINAL_S = 0.0021
BARE_NOMINAL_S = 0.042
IMPORT_NOMINAL_S = 0.0255

REFERENCE_IMPORTS = (
    "json, dataclasses, argparse, enum, typing, fractions, decimal, string, textwrap, "
    "inspect, logging, email.parser, tomllib"
)
REFERENCE_IMPORT_CODE = f"""\
import time
_t0 = time.perf_counter()
import {REFERENCE_IMPORTS}
print(time.perf_counter() - _t0)
"""


def reference_loop() -> int:
    """Small-tuple, sort and dict work of the kind the library does."""
    table: dict = {}
    acc = 0
    for n in range(1500):
        tones = (0, n % 5 + 1, n % 7 + 6, 11)
        gaps = tuple(b - a for a, b in zip(tones, tones[1:] + (12,)))
        key = tuple(sorted(gaps))
        table[key] = table.get(key, 0) + 1
        acc += key[0] + len(str(n))
    return acc + len(table)


def reference_time(reps: int = 3) -> float:
    """Median wall time of ``reps`` reference loops, in seconds."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return sorted(times)[reps // 2]


def percentile(ordered: list, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of a sorted list."""
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def summary(values, tail_q: int) -> dict:
    """Count, mean, quartiles and the ``tail_q`` percentile of the samples."""
    ordered = sorted(values)
    return {
        "n": len(ordered),
        "mean": sum(ordered) / len(ordered) if ordered else math.nan,
        "p25": percentile(ordered, 25),
        "p50": percentile(ordered, 50),
        "p75": percentile(ordered, 75),
        "p90": percentile(ordered, 90),
        "p99": percentile(ordered, 99),
        "tail": percentile(ordered, tail_q),
    }
