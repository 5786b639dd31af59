"""Wall time and peak RSS of the brute-force count oracle at one prime.

Usage: python tools/bench_bruteforce.py P [a1,a2,a3] [REPEATS]

Builds the field tables untimed, then calls count_solutions_bruteforce
REPEATS times (default 3) in this process and prints one JSON object
with the count, every call's wall time, their median, and peak RSS
before and after the calls.  Run one process per prime so that peak RSS
belongs to that prime alone.  It calls only public functions, so it runs
unchanged on older commits.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from markoff.enumeration import count_solutions_bruteforce
from markoff.surface import SurfaceParams


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    p = int(argv[0])
    a = tuple(int(v) for v in argv[1].split(",")) if len(argv) > 1 else (1, 1, 1)
    repeats = int(argv[2]) if len(argv) > 2 else 3
    params = SurfaceParams.make(p, a)
    params.field.chi_table, params.field.sqrt_table  # build the field tables untimed
    rss_before = _rss_mb()
    times, counts = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        counts.add(count_solutions_bruteforce(params))
        times.append(time.perf_counter() - start)
    print(json.dumps({
        "p": p, "a": list(params.a), "count": sorted(counts),
        "calls_s": [round(t, 4) for t in times],
        "median_s": round(statistics.median(times), 4),
        "peak_rss_mb_before": round(rss_before, 1),
        "peak_rss_mb_after": round(_rss_mb(), 1),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
