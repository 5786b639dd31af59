"""Per-stage wall time and peak RSS of the pipeline at one prime.

Usage: python tools/bench_stages.py P [a1,a2,a3]

Builds the field tables untimed, then runs the brute-force count oracle
(oracle_s) and, after it, enumerate -> move-neighbour lookup ->
labelling + numbering -> certificate build -> certificate verify once,
in this process, and prints one JSON object.  total_s covers the
pipeline from enumeration on; the oracle is timed on its own and stays
out of it.  Run one process per prime so that peak RSS belongs to that
prime alone.  The neighbour time is taken from a wrapper around
orbits.neighbor_indices, so "labelling" is compute_orbits minus the
neighbour lookup inside it.  It calls only public functions, so it runs
unchanged on older commits.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy

from markoff import delta, orbits
from markoff.enumeration import count_solutions_bruteforce, enumerate_solutions
from markoff.surface import SurfaceParams


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    p = int(argv[0])
    a = tuple(int(v) for v in argv[1].split(",")) if len(argv) > 1 else (1, 1, 1)
    params = SurfaceParams.make(p, a)
    params.field.chi_table, params.field.sqrt_table  # build the field tables untimed
    stages: dict[str, float] = {}
    rss: dict[str, float] = {}

    lookup = orbits.neighbor_indices

    def timed_lookup(sol):
        start = time.perf_counter()
        out = lookup(sol)
        stages["neighbours_s"] = time.perf_counter() - start
        return out

    start = time.perf_counter()
    oracle_count = count_solutions_bruteforce(params)
    stages["oracle_s"] = time.perf_counter() - start
    rss["oracle"] = _rss_mb()

    orbits.neighbor_indices = timed_lookup
    t0 = time.perf_counter()
    sol = enumerate_solutions(params)
    t1 = time.perf_counter()
    rss["enumerate"] = _rss_mb()
    part = orbits.compute_orbits(sol)
    t2 = time.perf_counter()
    rss["orbits"] = _rss_mb()
    assign = delta.build_certificate(sol)
    t3 = time.perf_counter()
    rss["cert_build"] = _rss_mb()
    report = delta.verify_certificate(assign, part)
    t4 = time.perf_counter()
    rss["cert_verify"] = _rss_mb()
    orbits.neighbor_indices = lookup

    stages["enumerate_s"] = t1 - t0
    stages["labelling_numbering_s"] = t2 - t1 - stages["neighbours_s"]
    stages["compute_orbits_s"] = t2 - t1
    stages["cert_build_s"] = t3 - t2
    stages["cert_verify_s"] = t4 - t3
    stages["total_s"] = t4 - t0
    print(json.dumps({
        "p": p, "a": list(params.a), "points": len(sol), "oracle_count": oracle_count,
        "orbits": len(part.orbits),
        "fixed_edges": report.n_fixed_edges, "all_divisible": report.all_divisible,
        "stages_s": {k: round(v, 3) for k, v in sorted(stages.items())},
        "peak_rss_mb_after": {k: round(v, 1) for k, v in rss.items()},
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "scipy": scipy.__version__},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
